// Tests for the static parallel kd-tree: construction invariants, k-NN
// and range search vs brute force, across dims / split policies /
// distributions (parameterized sweeps), and the buffered k-NN entry point
// with a liveness predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "datagen/datagen.h"
#include "kdtree/kdtree.h"
#include "test_util.h"

using namespace pargeo;
using kdtree::split_policy;

namespace {

template <int D>
void check_structure(const kdtree::tree<D>& t) {
  // Every node's box contains its points; children partition the range.
  std::vector<const typename kdtree::tree<D>::node*> stack{t.root()};
  while (!stack.empty()) {
    const auto* nd = stack.back();
    stack.pop_back();
    for (std::size_t i = nd->lo; i < nd->hi; ++i) {
      ASSERT_TRUE(nd->box.contains(t.point_at(i)));
    }
    if (!nd->is_leaf()) {
      ASSERT_EQ(nd->left->lo, nd->lo);
      ASSERT_EQ(nd->left->hi, nd->right->lo);
      ASSERT_EQ(nd->right->hi, nd->hi);
      ASSERT_GT(nd->left->size(), 0u);
      ASSERT_GT(nd->right->size(), 0u);
      stack.push_back(nd->left);
      stack.push_back(nd->right);
    }
  }
}

}  // namespace

TEST(Kdtree, EmptyInputBuildsAndQueriesReturnNothing) {
  std::vector<point<2>> empty;
  kdtree::tree<2> t(empty);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.knn(point<2>{{1, 2}}, 3).empty());
  aabb<2> qb(point<2>{{-10, -10}}, point<2>{{10, 10}});
  EXPECT_TRUE(t.range_box(qb).empty());
  EXPECT_TRUE(t.range_ball(point<2>{{0, 0}}, 100.0).empty());
}

TEST(Kdtree, SinglePoint) {
  std::vector<point<2>> pts{point<2>{{1, 2}}};
  kdtree::tree<2> t(pts);
  auto nn = t.knn(point<2>{{0, 0}}, 3);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 0u);
}

TEST(Kdtree, StructureInvariantsBothPolicies) {
  auto pts = datagen::uniform<3>(20000, 3);
  kdtree::tree<3> obj(pts, split_policy::object_median);
  kdtree::tree<3> spa(pts, split_policy::spatial_median);
  check_structure(obj);
  check_structure(spa);
}

TEST(Kdtree, DuplicatePointsBuildAndQuery) {
  std::vector<point<2>> pts(1000, point<2>{{5, 5}});
  for (int i = 0; i < 100; ++i) {
    pts.push_back(point<2>{{static_cast<double>(i), 0}});
  }
  kdtree::tree<2> t(pts);
  check_structure(t);
  auto nn = t.knn(point<2>{{5, 5}}, 4);
  ASSERT_EQ(nn.size(), 4u);
  for (const auto& e : nn) EXPECT_EQ(e.dist_sq, 0.0);
}

TEST(Kdtree, KnnKLargerThanN) {
  auto pts = datagen::uniform<2>(10, 1);
  kdtree::tree<2> t(pts);
  auto nn = t.knn(pts[0], 100);
  EXPECT_EQ(nn.size(), 10u);
}

TEST(Kdtree, RangeBoxMatchesBrute) {
  auto pts = datagen::uniform<2>(5000, 4);
  kdtree::tree<2> t(pts);
  const double side = std::sqrt(5000.0);
  for (int trial = 0; trial < 20; ++trial) {
    const double x = par::rand_double(1, trial) * side;
    const double y = par::rand_double(2, trial) * side;
    const double w = par::rand_double(3, trial) * side / 4;
    aabb<2> qb(point<2>{{x, y}}, point<2>{{x + w, y + w}});
    auto got = t.range_box(qb);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (qb.contains(pts[i])) expect.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(Kdtree, RangeBallMatchesBrute) {
  auto pts = datagen::in_sphere<3>(5000, 5);
  kdtree::tree<3> t(pts);
  for (int trial = 0; trial < 20; ++trial) {
    const auto& c = pts[trial * 131 % pts.size()];
    const double r = 1.0 + par::rand_double(7, trial) * 10;
    auto got = t.range_ball(c, r);
    auto expect = testutil::brute_range_ball(pts, c, r);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(Kdtree, KnnBatchMatchesSingle) {
  auto pts = datagen::uniform<2>(3000, 6);
  kdtree::tree<2> t(pts);
  std::vector<point<2>> queries(pts.begin(), pts.begin() + 50);
  auto batch = t.knn_batch(queries, 5);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto single = t.knn(queries[i], 5);
    ASSERT_EQ(batch[i].size(), single.size());
    for (std::size_t k = 0; k < single.size(); ++k) {
      EXPECT_EQ(batch[i][k].dist_sq, single[k].dist_sq);
    }
  }
}

// ---- parameterized sweep: dims x split policy x distribution ----------

struct SweepParam {
  int dim;
  split_policy policy;
  int dist;  // 0 uniform, 1 in_sphere, 2 visualvar
};

class KdtreeSweep : public ::testing::TestWithParam<SweepParam> {};

template <int D>
void run_knn_sweep(split_policy pol, int dist) {
  std::vector<point<D>> pts;
  switch (dist) {
    case 0: pts = datagen::uniform<D>(4000, 17); break;
    case 1: pts = datagen::in_sphere<D>(4000, 18); break;
    default: pts = datagen::visualvar<D>(4000, 19); break;
  }
  kdtree::tree<D> t(pts, pol);
  for (int q = 0; q < 25; ++q) {
    const auto& qp = pts[(q * 157) % pts.size()];
    auto nn = t.knn(qp, 6);
    auto brute = testutil::brute_knn_dists(pts, qp, 6);
    ASSERT_EQ(nn.size(), brute.size());
    for (std::size_t k = 0; k < brute.size(); ++k) {
      EXPECT_EQ(nn[k].dist_sq, brute[k]) << "dim=" << D << " k=" << k;
    }
  }
}

TEST_P(KdtreeSweep, KnnMatchesBruteForce) {
  const auto p = GetParam();
  switch (p.dim) {
    case 2: run_knn_sweep<2>(p.policy, p.dist); break;
    case 3: run_knn_sweep<3>(p.policy, p.dist); break;
    case 5: run_knn_sweep<5>(p.policy, p.dist); break;
    case 7: run_knn_sweep<7>(p.policy, p.dist); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimPolicyDist, KdtreeSweep,
    ::testing::Values(
        SweepParam{2, split_policy::object_median, 0},
        SweepParam{2, split_policy::spatial_median, 0},
        SweepParam{2, split_policy::object_median, 2},
        SweepParam{3, split_policy::object_median, 1},
        SweepParam{3, split_policy::spatial_median, 2},
        SweepParam{5, split_policy::object_median, 0},
        SweepParam{5, split_policy::spatial_median, 1},
        SweepParam{7, split_policy::object_median, 0},
        SweepParam{7, split_policy::spatial_median, 0}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "d" + std::to_string(info.param.dim) +
             (info.param.policy == split_policy::object_median ? "_obj"
                                                               : "_spa") +
             "_dist" + std::to_string(info.param.dist);
    });

TEST(Kdtree, LeafSizeOneWorks) {
  auto pts = datagen::uniform<2>(500, 21);
  kdtree::tree<2> t(pts, split_policy::object_median, 1);
  check_structure(t);
  auto nn = t.knn(pts[17], 3);
  auto brute = testutil::brute_knn_dists(pts, pts[17], 3);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(nn[k].dist_sq, brute[k]);
}

TEST(Kdtree, IdsMapBackToInputOrder) {
  auto pts = datagen::uniform<2>(2000, 22);
  kdtree::tree<2> t(pts);
  std::set<std::size_t> ids;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[t.id_of(i)], t.point_at(i));
    ids.insert(t.id_of(i));
  }
  EXPECT_EQ(ids.size(), pts.size());
}

// ---- buffered, liveness-filtered k-NN --------------------------------------
// The entry point the kd-tree serving adapter queries through: a
// caller-owned buffer that may already hold candidates (ids >= size()) and
// a predicate that hides erased points inside the traversal.

namespace {

// Runs tree::knn(q, buf, live) with `seeds` pre-inserted as ids n + j and
// checks it against brute force over the seeds plus every live point:
// same distances in order, each id live (or a seed), no id twice, and
// every entry's distance belongs to its id.
void expect_filtered_knn_matches_brute(const kdtree::tree<2>& t,
                                       const std::vector<point<2>>& pts,
                                       const std::vector<point<2>>& seeds,
                                       const std::vector<std::uint8_t>& dead,
                                       const point<2>& q, std::size_t k) {
  const std::size_t n = pts.size();
  kdtree::knn_buffer buf(k);
  for (std::size_t j = 0; j < seeds.size(); ++j) {
    buf.insert(seeds[j].dist_sq(q), n + j);
  }
  t.knn(q, buf, [&](std::size_t id) { return dead[id] == 0; });
  const auto got = buf.finish();

  std::vector<double> want;
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i] == 0) want.push_back(pts[i].dist_sq(q));
  }
  for (const auto& s : seeds) want.push_back(s.dist_sq(q));
  std::sort(want.begin(), want.end());
  want.resize(std::min(k, want.size()));

  ASSERT_EQ(got.size(), want.size());
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].dist_sq, want[i]) << "row " << i;
    const bool seeded = got[i].id >= n;
    if (!seeded) EXPECT_EQ(dead[got[i].id], 0) << "erased id returned";
    const auto& p = seeded ? seeds[got[i].id - n] : pts[got[i].id];
    EXPECT_EQ(p.dist_sq(q), got[i].dist_sq) << "row " << i;
    EXPECT_TRUE(seen.insert(got[i].id).second) << "id twice: " << got[i].id;
  }
}

// Original ids grouped by leaf, in tree order.
std::vector<std::vector<std::size_t>> leaf_ids(const kdtree::tree<2>& t) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<const kdtree::tree<2>::node*> stack{t.root()};
  while (!stack.empty()) {
    const auto* nd = stack.back();
    stack.pop_back();
    if (nd->is_leaf()) {
      out.emplace_back();
      for (std::size_t i = nd->lo; i < nd->hi; ++i) {
        out.back().push_back(t.id_of(i));
      }
    } else {
      stack.push_back(nd->left);
      stack.push_back(nd->right);
    }
  }
  return out;
}

}  // namespace

TEST(KdtreeFilteredKnn, PreSeededBufferMatchesBrute) {
  const auto pts = datagen::uniform<2>(3000, 31);
  kdtree::tree<2> t(pts);
  const std::vector<std::uint8_t> none(pts.size(), 0);
  const auto seeds = datagen::uniform<2>(60, 32);
  for (int q = 0; q < 20; ++q) {
    expect_filtered_knn_matches_brute(t, pts, seeds, none, seeds[q], 8);
    expect_filtered_knn_matches_brute(t, pts, seeds, none, pts[q * 97], 8);
  }
  // The wrapper is the same traversal with no seeds and nothing erased.
  auto plain = t.knn(pts[5], 8);
  kdtree::knn_buffer buf(8);
  t.knn(pts[5], buf, [](std::size_t) { return true; });
  auto via_buffer = buf.finish();
  ASSERT_EQ(plain.size(), via_buffer.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].id, via_buffer[i].id);
  }
}

TEST(KdtreeFilteredKnn, PredicateKillingWholeLeaves) {
  const auto pts = datagen::uniform<2>(4000, 33);
  kdtree::tree<2> t(pts);
  const auto leaves = leaf_ids(t);
  ASSERT_GT(leaves.size(), 8u);
  // Every other leaf dies outright, and so do all leaves around pts[0]
  // (its 300 nearest neighbours' leaves), so the nearest live points sit
  // several leaves away from the query.
  std::vector<std::uint8_t> dead(pts.size(), 0);
  for (std::size_t l = 0; l < leaves.size(); l += 2) {
    for (std::size_t id : leaves[l]) dead[id] = 1;
  }
  std::vector<std::uint8_t> near_leaf(leaves.size(), 0);
  std::vector<std::size_t> leaf_of(pts.size());
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    for (std::size_t id : leaves[l]) leaf_of[id] = l;
  }
  for (const auto& e : t.knn(pts[0], 300)) near_leaf[leaf_of[e.id]] = 1;
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    if (near_leaf[l]) {
      for (std::size_t id : leaves[l]) dead[id] = 1;
    }
  }
  const std::vector<point<2>> no_seeds;
  for (int q = 0; q < 20; ++q) {
    expect_filtered_knn_matches_brute(t, pts, no_seeds, dead, pts[q * 61], 8);
  }
  expect_filtered_knn_matches_brute(t, pts, no_seeds, dead, pts[0], 8);
  expect_filtered_knn_matches_brute(t, pts, datagen::uniform<2>(5, 34), dead,
                                    pts[0], 8);
}

TEST(KdtreeFilteredKnn, KLargerThanLiveCount) {
  const auto pts = datagen::uniform<2>(500, 35);
  kdtree::tree<2> t(pts);
  std::vector<std::uint8_t> dead(pts.size(), 1);
  for (std::size_t id : {3u, 77u, 150u, 151u, 499u}) dead[id] = 0;
  const auto seeds = datagen::uniform<2>(2, 36);
  // 5 live points + 2 seeds < k: every one of them comes back.
  expect_filtered_knn_matches_brute(t, pts, seeds, dead, pts[10], 20);
  expect_filtered_knn_matches_brute(t, pts, {}, dead, pts[10], 20);
  // Nothing live and no seeds: an empty row.
  const std::vector<std::uint8_t> all_dead(pts.size(), 1);
  kdtree::knn_buffer buf(4);
  t.knn(pts[0], buf, [&](std::size_t id) { return all_dead[id] == 0; });
  EXPECT_TRUE(buf.finish().empty());
}

TEST(KdtreeFilteredKnn, DuplicateAndEquidistantPoints) {
  // 300 copies of one value plus an integer lattice, so most distances
  // tie; half the copies are erased.
  std::vector<point<2>> pts(300, point<2>{{5, 5}});
  for (int x = 0; x < 20; ++x) {
    for (int y = 0; y < 20; ++y) {
      pts.push_back(point<2>{{static_cast<double>(x), static_cast<double>(y)}});
    }
  }
  kdtree::tree<2> t(pts);
  std::vector<std::uint8_t> dead(pts.size(), 0);
  for (std::size_t i = 0; i < 300; i += 2) dead[i] = 1;
  const std::vector<point<2>> seeds(4, point<2>{{5, 5}});
  for (std::size_t k : {1u, 8u, 150u, 154u, 160u, 400u}) {
    expect_filtered_knn_matches_brute(t, pts, seeds, dead, point<2>{{5, 5}}, k);
    expect_filtered_knn_matches_brute(t, pts, {}, dead, point<2>{{5.5, 5.5}},
                                      k);
    expect_filtered_knn_matches_brute(t, pts, seeds, dead,
                                      point<2>{{12.5, 3}}, k);
  }
}
