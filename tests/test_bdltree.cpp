// Tests for the BDL-tree and its baselines: logarithmic-method structure
// invariants, model-based random batch workloads vs a reference multiset,
// and k-NN correctness under mixed insert/delete histories.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bdltree/baselines.h"
#include "bdltree/bdl_tree.h"
#include "datagen/datagen.h"
#include "test_util.h"

using namespace pargeo;
using namespace pargeo::bdltree;

namespace {

template <int D>
void expect_same_multiset(std::vector<point<D>> a, std::vector<point<D>> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

template <class Tree, int D>
void check_knn_against_reference(const Tree& t,
                                 const std::vector<point<D>>& reference,
                                 const std::vector<point<D>>& queries,
                                 std::size_t k) {
  auto res = t.knn(queries, k);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto brute = testutil::brute_knn_dists(reference, queries[qi], k);
    ASSERT_EQ(res[qi].size(), brute.size());
    for (std::size_t j = 0; j < brute.size(); ++j) {
      EXPECT_EQ(res[qi][j].dist_sq(queries[qi]), brute[j]);
    }
  }
}

}  // namespace

TEST(BdlTree, BufferAbsorbsSmallBatches) {
  bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/100);
  auto pts = datagen::uniform<2>(99, 1);
  t.insert(pts);
  EXPECT_EQ(t.size(), 99u);
  EXPECT_EQ(t.num_static_trees(), 0u);  // everything still in the buffer
  t.insert({pts[0]});
  EXPECT_EQ(t.size(), 100u);
  EXPECT_EQ(t.num_static_trees(), 1u);  // buffer promoted into tree 0
}

TEST(BdlTree, LogStructureFollowsBitmask) {
  const std::size_t X = 64;
  bdl_tree<2> t(split_policy::object_median, X);
  auto pts = datagen::uniform<2>(X * 7, 2);  // 7 = 0b111 full trees
  t.insert(pts);
  EXPECT_EQ(t.size(), X * 7);
  EXPECT_EQ(t.num_static_trees(), 3u);  // trees 0,1,2
}

TEST(BdlTree, CascadeOnInsert) {
  const std::size_t X = 32;
  bdl_tree<2> t(split_policy::object_median, X);
  // X points -> tree 0; X more -> cascade into tree 1 only.
  t.insert(datagen::uniform<2>(X, 3));
  EXPECT_EQ(t.num_static_trees(), 1u);
  t.insert(datagen::uniform<2>(X, 4));
  EXPECT_EQ(t.num_static_trees(), 1u);
  EXPECT_EQ(t.size(), 2 * X);
  // X more -> tree 0 and tree 1 both occupied.
  t.insert(datagen::uniform<2>(X, 5));
  EXPECT_EQ(t.num_static_trees(), 2u);
}

TEST(BdlTree, GatherRoundTrip) {
  bdl_tree<5> t;
  auto pts = datagen::uniform<5>(5000, 6);
  std::vector<point<5>> a(pts.begin(), pts.begin() + 2500);
  std::vector<point<5>> b(pts.begin() + 2500, pts.end());
  t.insert(a);
  t.insert(b);
  expect_same_multiset<5>(t.gather(), pts);
}

TEST(BdlTree, KnnAfterMixedOperations) {
  bdl_tree<2> t;
  auto pts = datagen::visualvar<2>(8000, 7);
  std::vector<point<2>> first(pts.begin(), pts.begin() + 5000);
  std::vector<point<2>> second(pts.begin() + 5000, pts.end());
  t.insert(first);
  t.insert(second);
  std::vector<point<2>> del(pts.begin(), pts.begin() + 2000);
  t.erase(del);
  ASSERT_EQ(t.size(), 6000u);
  std::vector<point<2>> reference(pts.begin() + 2000, pts.end());
  std::vector<point<2>> queries(reference.begin(), reference.begin() + 25);
  check_knn_against_reference<bdl_tree<2>, 2>(t, reference, queries, 5);
}

TEST(BdlTree, DeleteTriggersHalfCapacityRebuild) {
  const std::size_t X = 128;
  bdl_tree<2> t(split_policy::object_median, X);
  auto pts = datagen::uniform<2>(4 * X, 8);
  t.insert(pts);
  // Deleting 3/4 of the points must leave a consistent structure.
  std::vector<point<2>> del(pts.begin(), pts.begin() + 3 * X);
  t.erase(del);
  EXPECT_EQ(t.size(), X);
  std::vector<point<2>> rest(pts.begin() + 3 * X, pts.end());
  expect_same_multiset<2>(t.gather(), rest);
}

TEST(BdlTree, EraseAll) {
  bdl_tree<2> t;
  auto pts = datagen::uniform<2>(3000, 9);
  t.insert(pts);
  t.erase(pts);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.gather().empty());
}

TEST(BdlTree, EraseTakesOneCopyOfAPointStoredInBufferAndTrees) {
  // pts[0] ends up stored three times: in tree 1, in tree 0 and in the
  // buffer. Each erase entry must delete exactly one of those copies.
  bdl_tree<2> t(split_policy::object_median, /*buffer_size=*/64);
  auto pts = datagen::uniform<2>(128, 14);
  t.insert(pts);
  std::vector<point<2>> more = datagen::uniform<2>(63, 15);
  more.push_back(pts[0]);
  t.insert(more);
  t.insert({pts[0]});
  ASSERT_EQ(t.size(), 193u);
  ASSERT_EQ(t.num_static_trees(), 2u);
  t.erase({pts[0]});
  EXPECT_EQ(t.size(), 192u);
  t.erase({pts[0], pts[0]});
  EXPECT_EQ(t.size(), 190u);
  t.erase({pts[0]});  // no copy left
  EXPECT_EQ(t.size(), 190u);
  auto model = pts;
  model.erase(model.begin());
  model.insert(model.end(), more.begin(), more.end() - 1);
  expect_same_multiset<2>(t.gather(), model);
}

TEST(BdlTree, ModelBasedRandomWorkload) {
  // Random interleaving of batch inserts and deletes, checked against a
  // plain vector model after each operation.
  bdl_tree<2> t(split_policy::object_median, 64);
  std::vector<point<2>> model;
  auto all = datagen::uniform<2>(6000, 10);
  std::size_t next = 0;
  for (int step = 0; step < 30; ++step) {
    const bool doInsert = model.size() < 500 ||
                          par::rand_double(11, step) < 0.6;
    if (doInsert && next < all.size()) {
      const std::size_t take =
          std::min<std::size_t>(1 + par::rand_range(12, step, 400),
                                all.size() - next);
      std::vector<point<2>> batch(all.begin() + next,
                                  all.begin() + next + take);
      next += take;
      t.insert(batch);
      model.insert(model.end(), batch.begin(), batch.end());
    } else if (!model.empty()) {
      const std::size_t take =
          1 + par::rand_range(13, step, model.size() / 2 + 1);
      std::vector<point<2>> batch(model.end() - take, model.end());
      model.resize(model.size() - take);
      t.erase(batch);
    }
    ASSERT_EQ(t.size(), model.size()) << "step " << step;
  }
  expect_same_multiset<2>(t.gather(), model);
  if (!model.empty()) {
    std::vector<point<2>> queries(model.begin(),
                                  model.begin() + std::min<std::size_t>(
                                                      10, model.size()));
    check_knn_against_reference<bdl_tree<2>, 2>(t, model, queries, 3);
  }
}

// ---- baselines ---------------------------------------------------------

template <class Tree>
class BaselineTest : public ::testing::Test {};

using BaselineTypes = ::testing::Types<b1_tree<2>, b2_tree<2>, bdl_tree<2>>;
TYPED_TEST_SUITE(BaselineTest, BaselineTypes);

TYPED_TEST(BaselineTest, InsertEraseKnnAgainstReference) {
  TypeParam t;
  auto pts = datagen::uniform<2>(4000, 20);
  std::vector<point<2>> a(pts.begin(), pts.begin() + 2000);
  std::vector<point<2>> b(pts.begin() + 2000, pts.end());
  t.insert(a);
  t.insert(b);
  ASSERT_EQ(t.size(), pts.size());
  std::vector<point<2>> del(pts.begin(), pts.begin() + 1000);
  t.erase(del);
  ASSERT_EQ(t.size(), 3000u);
  std::vector<point<2>> reference(pts.begin() + 1000, pts.end());
  std::vector<point<2>> queries(reference.begin(), reference.begin() + 15);
  check_knn_against_reference<TypeParam, 2>(t, reference, queries, 4);
}

TYPED_TEST(BaselineTest, IncrementalSmallBatches) {
  TypeParam t;
  auto pts = datagen::visualvar<2>(3000, 21);
  for (std::size_t off = 0; off < pts.size(); off += 150) {
    std::vector<point<2>> batch(
        pts.begin() + off,
        pts.begin() + std::min(pts.size(), off + 150));
    t.insert(batch);
  }
  ASSERT_EQ(t.size(), pts.size());
  std::vector<point<2>> queries(pts.begin(), pts.begin() + 15);
  check_knn_against_reference<TypeParam, 2>(t, pts, queries, 5);
}

TEST(BdlTree, HigherDimensions) {
  bdl_tree<7> t;
  auto pts = datagen::uniform<7>(3000, 22);
  t.insert(pts);
  std::vector<point<7>> queries(pts.begin(), pts.begin() + 10);
  check_knn_against_reference<bdl_tree<7>, 7>(t, pts, queries, 5);
}

TEST(BdlTree, RangeBallMatchesBruteAfterUpdates) {
  bdl_tree<2> t;
  auto pts = datagen::uniform<2>(5000, 30);
  std::vector<point<2>> a(pts.begin(), pts.begin() + 3000);
  std::vector<point<2>> b(pts.begin() + 3000, pts.end());
  t.insert(a);
  t.insert(b);
  std::vector<point<2>> del(pts.begin(), pts.begin() + 1000);
  t.erase(del);
  std::vector<point<2>> live(pts.begin() + 1000, pts.end());
  const double r = 3.0;
  std::vector<point<2>> queries(live.begin(), live.begin() + 20);
  auto res = t.range_ball(queries, r);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto got = res[qi];
    std::vector<point<2>> expect;
    for (const auto& p : live) {
      if (p.dist_sq(queries[qi]) <= r * r) expect.push_back(p);
    }
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(BdlTree, RangeBallEmptyRadius) {
  bdl_tree<2> t;
  auto pts = datagen::uniform<2>(1000, 31);
  t.insert(pts);
  auto res = t.range_ball({point<2>{{-1e9, -1e9}}}, 1.0);
  EXPECT_TRUE(res[0].empty());
}
