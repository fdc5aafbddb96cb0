// Tests for the Zd-tree (Morton-order batch-dynamic tree, §6.3 comparison
// structure): k-NN, box and ball vs brute force under batch updates, runs
// of duplicates that span chunks, copy isolation, and churn oracles that
// split, shrink and empty chunks.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "datagen/datagen.h"
#include "test_util.h"
#include "zdtree/zdtree.h"

using namespace pargeo;
using zdtree::zd_tree;

namespace {

template <int D>
void check_knn(const zd_tree<D>& t, const std::vector<point<D>>& reference,
               const std::vector<point<D>>& queries, std::size_t k) {
  auto res = t.knn(queries, k);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto brute = testutil::brute_knn_dists(reference, queries[qi], k);
    ASSERT_EQ(res[qi].size(), brute.size());
    for (std::size_t j = 0; j < brute.size(); ++j) {
      EXPECT_EQ(res[qi][j].dist_sq(queries[qi]), brute[j]);
    }
  }
}

template <int D>
std::vector<point<D>> sorted(std::vector<point<D>> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// k-NN distances, box and ball contents, size and gather() against the
// multiset `model`, for `n_queries` queries around model points.
template <int D>
void check_all(const zd_tree<D>& t, const std::vector<point<D>>& model,
               std::mt19937_64& rng, std::size_t n_queries = 8) {
  ASSERT_EQ(t.size(), model.size());
  ASSERT_EQ(sorted(t.gather()), sorted(model));
  if (model.empty()) return;
  std::uniform_int_distribution<std::size_t> pick(0, model.size() - 1);
  std::uniform_real_distribution<double> jitter(-2.0, 2.0);
  std::vector<point<D>> queries;
  for (std::size_t i = 0; i < n_queries; ++i) {
    point<D> q = model[pick(rng)];
    for (int d = 0; d < D; ++d) q[d] += jitter(rng);
    queries.push_back(q);
  }
  check_knn<D>(t, model, queries, 7);
  for (const auto& q : queries) {
    point<D> half;
    for (int d = 0; d < D; ++d) half[d] = 3.0;
    const aabb<D> box(q - half, q + half);
    std::vector<point<D>> got, want;
    t.range_box(box, got);
    for (const auto& p : model) {
      if (box.contains(p)) want.push_back(p);
    }
    EXPECT_EQ(sorted(got), sorted(want));

    const double r = 2.5;
    got.clear();
    want.clear();
    t.range_ball(q, r, got);
    for (const auto& p : model) {
      if (p.dist_sq(q) <= r * r) want.push_back(p);
    }
    EXPECT_EQ(sorted(got), sorted(want));
  }
}

// Thousands of 1-3-point batches: a growth phase (chunks split), a shrink
// phase (chunks fall under their floor, merge and empty), erase-all, and a
// reinsert, checked against a brute-force multiset throughout. Some inserts
// repeat stored points, so erases also hit runs of duplicates.
template <int D>
void churn_oracle(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pool = datagen::uniform<D>(6000, seed);
  auto model = std::vector<point<D>>(pool.begin(), pool.begin() + 1000);
  zd_tree<D> t(model);
  std::size_t next = model.size();
  std::uniform_int_distribution<int> batch_size(1, 3);
  std::uniform_int_distribution<int> coin(0, 99);

  const auto step = [&](int insert_pct) {
    const int b = batch_size(rng);
    std::vector<point<D>> batch;
    if (coin(rng) < insert_pct || model.empty()) {
      for (int i = 0; i < b; ++i) {
        if (coin(rng) < 10 && !model.empty()) {
          batch.push_back(model[rng() % model.size()]);  // a duplicate
        } else {
          batch.push_back(pool[next++ % pool.size()]);
        }
      }
      t.insert(batch);
      model.insert(model.end(), batch.begin(), batch.end());
    } else {
      for (int i = 0; i < b && !model.empty(); ++i) {
        const std::size_t at = rng() % model.size();
        batch.push_back(model[at]);
        model[at] = model.back();
        model.pop_back();
      }
      t.erase(batch);
    }
    ASSERT_EQ(t.size(), model.size());
  };

  for (int i = 0; i < 3000; ++i) {
    step(80);
    if (i % 500 == 499) check_all<D>(t, model, rng);
  }
  ASSERT_GT(model.size(), 3000u);  // grew by several chunks' worth
  std::size_t smallest = model.size();
  for (int i = 0; i < 4000; ++i) {
    step(15);
    smallest = std::min(smallest, model.size());
    if (i % 500 == 499) check_all<D>(t, model, rng);
  }
  ASSERT_LT(smallest, 100u);  // shrank below one chunk's floor
  t.erase(model);
  model.clear();
  check_all<D>(t, model, rng);
  auto again = std::vector<point<D>>(pool.begin(), pool.begin() + 700);
  t.insert(again);
  check_all<D>(t, again, rng);
}

}  // namespace

TEST(ZdTree, BuildAndKnn) {
  auto pts = datagen::uniform<3>(5000, 3);
  zd_tree<3> t(pts);
  EXPECT_EQ(t.size(), pts.size());
  std::vector<point<3>> queries(pts.begin(), pts.begin() + 20);
  check_knn<3>(t, pts, queries, 5);
}

TEST(ZdTree, InsertMergesCorrectly) {
  auto a = datagen::uniform<2>(3000, 4);
  auto b = datagen::uniform<2>(2000, 5);
  zd_tree<2> t(a);
  t.insert(b);
  EXPECT_EQ(t.size(), a.size() + b.size());
  auto all = a;
  all.insert(all.end(), b.begin(), b.end());
  std::vector<point<2>> queries(b.begin(), b.begin() + 20);
  check_knn<2>(t, all, queries, 4);
}

TEST(ZdTree, EraseRemovesOneCopyPerEntry) {
  auto pts = datagen::uniform<2>(2000, 6);
  zd_tree<2> t(pts);
  std::vector<point<2>> del(pts.begin(), pts.begin() + 500);
  t.erase(del);
  EXPECT_EQ(t.size(), 1500u);
  std::vector<point<2>> rest(pts.begin() + 500, pts.end());
  auto got = t.gather();
  std::sort(got.begin(), got.end());
  std::sort(rest.begin(), rest.end());
  EXPECT_EQ(got, rest);
}

TEST(ZdTree, EraseNonMembersNoop) {
  auto pts = datagen::uniform<2>(500, 7);
  zd_tree<2> t(pts);
  t.erase({point<2>{{-1e6, -1e6}}});
  EXPECT_EQ(t.size(), pts.size());
}

TEST(ZdTree, DuplicateHandling) {
  std::vector<point<2>> pts(100, point<2>{{1, 1}});
  zd_tree<2> t(pts);
  t.erase({point<2>{{1, 1}}});
  EXPECT_EQ(t.size(), 99u);  // one copy removed per batch entry
}

TEST(ZdTree, MixedWorkloadAgainstModel) {
  zd_tree<2> t;
  std::vector<point<2>> model;
  auto all = datagen::visualvar<2>(4000, 8);
  std::size_t next = 0;
  for (int step = 0; step < 20; ++step) {
    if (step % 3 != 2 && next < all.size()) {
      const std::size_t take = std::min<std::size_t>(300, all.size() - next);
      std::vector<point<2>> batch(all.begin() + next,
                                  all.begin() + next + take);
      next += take;
      t.insert(batch);
      model.insert(model.end(), batch.begin(), batch.end());
    } else if (!model.empty()) {
      std::vector<point<2>> batch(model.end() -
                                      std::min<std::size_t>(200,
                                                            model.size()),
                                  model.end());
      model.resize(model.size() - batch.size());
      t.erase(batch);
    }
    ASSERT_EQ(t.size(), model.size());
  }
  if (!model.empty()) {
    std::vector<point<2>> queries(model.begin(),
                                  model.begin() +
                                      std::min<std::size_t>(10,
                                                            model.size()));
    check_knn<2>(t, model, queries, 3);
  }
}

TEST(ZdTree, EmptyTreeQueries) {
  zd_tree<2> t;
  EXPECT_EQ(t.size(), 0u);
  auto res = t.knn({point<2>{{0, 0}}}, 3);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].empty());
}

TEST(ZdTree, RangeBoxAndBallAfterMixedBatches) {
  std::mt19937_64 rng(21);
  const auto a = datagen::uniform<2>(4000, 22);
  const auto b = datagen::uniform<2>(2500, 23);
  zd_tree<2> t(a);
  auto model = a;
  t.insert(b);
  model.insert(model.end(), b.begin(), b.end());
  check_all<2>(t, model, rng, 20);

  // Erase every third point of `a` and a slice of `b`.
  std::vector<point<2>> del;
  for (std::size_t i = 0; i < a.size(); i += 3) del.push_back(a[i]);
  del.insert(del.end(), b.begin(), b.begin() + 800);
  t.erase(del);
  model.clear();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i % 3 != 0) model.push_back(a[i]);
  }
  model.insert(model.end(), b.begin() + 800, b.end());
  check_all<2>(t, model, rng, 20);

  const auto c = datagen::uniform<2>(300, 24);
  t.insert(c);
  model.insert(model.end(), c.begin(), c.end());
  check_all<2>(t, model, rng, 20);
}

TEST(ZdTree, DuplicatesSpanningChunks) {
  // Far more copies of one point than a chunk holds (chunks hold at most
  // a few hundred items), with Morton neighbours on both sides, so the
  // run of copies covers several chunk boundaries.
  std::mt19937_64 rng(41);
  const point<2> dup{{20.0, 20.0}};
  std::vector<point<2>> model(3000, dup);
  for (int i = 1; i <= 200; ++i) {
    model.push_back(point<2>{{20.0 - 0.01 * i, 20.0}});
    model.push_back(point<2>{{20.0 + 0.01 * i, 20.0}});
  }
  const auto others = datagen::uniform<2>(2000, 42);
  model.insert(model.end(), others.begin(), others.end());
  zd_tree<2> t(model);
  check_all<2>(t, model, rng);

  const auto erase_copies = [&](std::size_t count) {
    t.erase(std::vector<point<2>>(count, dup));
    for (std::size_t removed = 0; removed < count;) {
      const auto it = std::find(model.begin(), model.end(), dup);
      ASSERT_NE(it, model.end());
      *it = model.back();
      model.pop_back();
      ++removed;
    }
    check_all<2>(t, model, rng);
  };
  erase_copies(700);   // crosses at least one chunk boundary
  erase_copies(1);
  erase_copies(1799);  // 500 copies left
  // More copies requested than stored: only the stored ones go.
  t.erase(std::vector<point<2>>(900, dup));
  model.erase(std::remove(model.begin(), model.end(), dup), model.end());
  check_all<2>(t, model, rng);
  // Re-add a run of copies in one batch and another point by point.
  t.insert(std::vector<point<2>>(1200, dup));
  model.insert(model.end(), 1200, dup);
  for (int i = 0; i < 50; ++i) t.insert({dup});
  model.insert(model.end(), 50, dup);
  check_all<2>(t, model, rng);
}

TEST(ZdTree, CopyIsIsolatedFromLaterWrites) {
  // The adapter copies a tree, writes to the copy and keeps serving reads
  // from the original; the chunks they share must never change under it.
  const auto pts = datagen::uniform<2>(5000, 51);
  const zd_tree<2> a(pts);
  const auto queries = datagen::uniform<2>(30, 52);
  const auto gathered = a.gather();
  const auto rows = a.knn(queries, 6);

  zd_tree<2> b = a;
  b.insert(datagen::uniform<2>(3000, 53));
  std::vector<point<2>> del(pts.begin(), pts.begin() + 2500);
  b.erase(del);
  for (int i = 0; i < 200; ++i) {
    b.insert({point<2>{{1.0 * i, 2.0}}});
    b.erase({pts[2500 + i]});
  }

  EXPECT_EQ(a.size(), pts.size());
  EXPECT_EQ(a.gather(), gathered);
  EXPECT_EQ(a.knn(queries, 6), rows);
  check_knn<2>(a, pts, queries, 6);
  EXPECT_EQ(b.size(), pts.size() + 3000 - 2500);
}

TEST(ZdTree, ChurnOracle2D) { churn_oracle<2>(61); }

TEST(ZdTree, ChurnOracle3D) { churn_oracle<3>(62); }
