// Unit tests for the epoch/snapshot layer of spatial_index (layer 1):
// write epochs advance monotonically on every content change; isolated
// snapshots (kdtree: shared tree, tombstones and buffered inserts, copied
// by the live index only before its next write; zdtree: chunk-level
// copy-on-write Morton array; bdltree: chunk-level COW forest view) keep
// answering exactly as of their epoch while the live index absorbs further
// writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "datagen/datagen.h"
#include "query/query_engine.h"
#include "query/spatial_index.h"
#include "test_util.h"

using namespace pargeo;
using query::backend;

namespace {

class SnapshotEpochs : public ::testing::TestWithParam<backend> {};

}  // namespace

TEST_P(SnapshotEpochs, EpochAdvancesOnEveryContentChange) {
  auto idx = query::make_index<2>(GetParam());
  const auto e0 = idx->epoch();
  idx->build(datagen::uniform<2>(100, 3));
  const auto e1 = idx->epoch();
  EXPECT_GT(e1, e0);
  idx->batch_insert(datagen::uniform<2>(10, 4));
  const auto e2 = idx->epoch();
  EXPECT_GT(e2, e1);
  auto victims = datagen::uniform<2>(100, 3);
  victims.resize(5);
  idx->batch_erase(victims);
  EXPECT_GT(idx->epoch(), e2);
  // Reads never advance the epoch.
  const auto e3 = idx->epoch();
  idx->batch_knn(datagen::uniform<2>(4, 5), 3);
  EXPECT_EQ(idx->epoch(), e3);
  // Neither do no-op writes: an erase that matches nothing leaves the
  // contents — and therefore the epoch — untouched.
  idx->batch_erase({point<2>{{-777, -777}}, point<2>{{-778, -778}}});
  EXPECT_EQ(idx->epoch(), e3);
  idx->batch_insert({});
  EXPECT_EQ(idx->epoch(), e3);
}

TEST_P(SnapshotEpochs, SnapshotCarriesEpochAndContents) {
  auto idx = query::make_index<2>(GetParam());
  idx->build(datagen::uniform<2>(200, 7));
  auto snap = idx->snapshot();
  EXPECT_EQ(snap->epoch(), idx->epoch());
  EXPECT_EQ(snap->size(), idx->size());

  const auto queries = datagen::uniform<2>(8, 9);
  auto live = idx->batch_knn(queries, 5);
  auto snapped = snap->batch_knn(queries, 5);
  ASSERT_EQ(live.size(), snapped.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(live[i].size(), snapped[i].size()) << "query " << i;
    for (std::size_t j = 0; j < live[i].size(); ++j) {
      EXPECT_EQ(live[i][j].dist_sq(queries[i]),
                snapped[i][j].dist_sq(queries[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SnapshotEpochs,
    ::testing::Values(backend::kdtree, backend::zdtree, backend::bdltree),
    [](const ::testing::TestParamInfo<backend>& info) {
      return query::backend_name(info.param);
    });

namespace {

// Writes applied after the snapshot must be invisible to it: the isolation
// property the query_service's concurrent read drains rely on.
template <int D>
void expect_isolated_from_later_writes(backend b) {
  auto idx = query::make_index<D>(b);
  const auto initial = datagen::uniform<D>(150, 11);
  idx->build(initial);

  auto snap = idx->snapshot();
  ASSERT_TRUE(snap->isolated());
  const auto snap_epoch = snap->epoch();

  // Mutate the live index well past the snapshot: fresh inserts in a far
  // stripe plus erases of initial points.
  point<D> far{};
  for (int d = 0; d < D; ++d) far[d] = 500.0 + d;
  idx->batch_insert({far});
  auto victims = initial;
  victims.resize(40);
  idx->batch_erase(victims);

  EXPECT_GT(idx->epoch(), snap_epoch);
  EXPECT_EQ(snap->epoch(), snap_epoch);
  EXPECT_EQ(snap->size(), initial.size());

  // k-NN through the snapshot matches brute force over the ORIGINAL set.
  const auto queries = datagen::uniform<D>(6, 13);
  auto rows = snap->batch_knn(queries, 4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = testutil::brute_knn_dists(initial, queries[i], 4);
    ASSERT_EQ(rows[i].size(), expect.size()) << "query " << i;
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(rows[i][j].dist_sq(queries[i]), expect[j])
          << "query " << i << " row " << j;
    }
  }

  // The far insert is invisible to a snapshot ball; erased points remain.
  auto balls = snap->batch_ball({far}, {0.5});
  EXPECT_TRUE(balls[0].empty());
  aabb<D> everything(initial[0], initial[0]);
  for (const auto& p : initial) everything.extend(p);
  auto ranges = snap->batch_range({everything});
  EXPECT_EQ(ranges[0].size(), initial.size());
}

}  // namespace

TEST(SnapshotIsolation, KdtreeSnapshotIgnoresLaterWrites2D) {
  expect_isolated_from_later_writes<2>(backend::kdtree);
}

TEST(SnapshotIsolation, KdtreeSnapshotIgnoresLaterWrites3D) {
  expect_isolated_from_later_writes<3>(backend::kdtree);
}

TEST(SnapshotIsolation, ZdtreeSnapshotIgnoresLaterWrites2D) {
  expect_isolated_from_later_writes<2>(backend::zdtree);
}

TEST(SnapshotIsolation, ZdtreeSnapshotIgnoresLaterWrites3D) {
  expect_isolated_from_later_writes<3>(backend::zdtree);
}

TEST(SnapshotIsolation, KdtreeSnapshotSurvivesRebuild) {
  // A rebuild swaps the live tree + base arrays; a snapshot taken before
  // must keep answering from the structures it captured.
  query::kdtree_index<2> idx(kdtree::split_policy::object_median, 16,
                             /*rebuild_threshold=*/0.1);
  const auto initial = datagen::uniform<2>(100, 17);
  idx.build(initial);
  auto snap = idx.snapshot();
  const std::size_t rebuilds_before = idx.rebuild_count();

  idx.batch_insert(datagen::uniform<2>(60, 19));  // > 10% -> rebuild
  EXPECT_GT(idx.rebuild_count(), rebuilds_before);

  const auto queries = datagen::uniform<2>(5, 23);
  auto rows = snap->batch_knn(queries, 3);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = testutil::brute_knn_dists(initial, queries[i], 3);
    ASSERT_EQ(rows[i].size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(rows[i][j].dist_sq(queries[i]), expect[j]);
    }
  }
}

TEST(SnapshotIsolation, BdltreeSnapshotIgnoresLaterWrites2D) {
  // The BDL forest used to hand out pinned (non-isolated) views that
  // required the service to gate writes while reads were in flight.
  // Snapshots are now chunk-level COW forest views: fully isolated, and
  // superseded structure versions are retired through the epoch
  // reclaimer instead of blocking writers.
  expect_isolated_from_later_writes<2>(backend::bdltree);
}

TEST(SnapshotIsolation, BdltreeSnapshotIgnoresLaterWrites3D) {
  expect_isolated_from_later_writes<3>(backend::bdltree);
}

TEST(SnapshotIsolation, BdltreeSnapshotSurvivesManyWriteRounds) {
  // Rounds of insert+erase churn rebuild / merge BDL levels repeatedly;
  // a snapshot captured up front must keep answering from its original
  // chunk set no matter how much the live forest restructures.
  auto idx = query::make_index<2>(backend::bdltree);
  const auto initial = datagen::uniform<2>(150, 41);
  idx->build(initial);
  auto snap = idx->snapshot();
  ASSERT_TRUE(snap->isolated());

  for (int round = 0; round < 6; ++round) {
    idx->batch_insert(datagen::uniform<2>(40, 43 + round));
    auto victims = datagen::uniform<2>(40, 43 + round);
    victims.resize(20);
    idx->batch_erase(victims);
  }

  EXPECT_EQ(snap->size(), initial.size());
  const auto queries = datagen::uniform<2>(5, 47);
  auto rows = snap->batch_knn(queries, 3);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = testutil::brute_knn_dists(initial, queries[i], 3);
    ASSERT_EQ(rows[i].size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(rows[i][j].dist_sq(queries[i]), expect[j]);
    }
  }
}

namespace {

// k-NN distances, box contents and ball contents of `view` (a snapshot or
// a live index) against brute force over `model`.
template <class View>
void expect_matches_model(const View& view,
                          const std::vector<point<2>>& model) {
  ASSERT_EQ(view.size(), model.size());
  const auto queries = datagen::uniform<2>(6, 77);
  auto rows = view.batch_knn(queries, 5);
  std::vector<aabb<2>> boxes;
  std::vector<double> radii;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto expect = testutil::brute_knn_dists(model, queries[i], 5);
    ASSERT_EQ(rows[i].size(), expect.size()) << "query " << i;
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(rows[i][j].dist_sq(queries[i]), expect[j]) << "query " << i;
    }
    const point<2> half{{4.0, 4.0}};
    boxes.emplace_back(queries[i] - half, queries[i] + half);
    radii.push_back(3.0);
  }
  auto in_box = view.batch_range(boxes);
  auto in_ball = view.batch_ball(queries, radii);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<point<2>> want_box, want_ball;
    for (const auto& p : model) {
      if (boxes[i].contains(p)) want_box.push_back(p);
      if (p.dist_sq(queries[i]) <= radii[i] * radii[i]) {
        want_ball.push_back(p);
      }
    }
    for (auto* v : {&in_box[i], &in_ball[i], &want_box, &want_ball}) {
      std::sort(v->begin(), v->end());
    }
    EXPECT_EQ(in_box[i], want_box) << "query " << i;
    EXPECT_EQ(in_ball[i], want_ball) << "query " << i;
  }
}

}  // namespace

TEST(SnapshotIsolation, ZdtreeSnapshotSurvivesManyWriteRounds) {
  // About 2,000 single-point writes rebuild, split, merge and drop
  // Morton-array chunks, and every superseded version is retired through
  // the epoch reclaimer and freed at the reclaim points in between. A
  // snapshot captured up front must keep answering from its own chunks,
  // and the live index must match the current contents.
  query::epoch_reclaimer rec;
  auto idx = query::make_index<2>(backend::zdtree);
  idx->set_reclaimer(&rec);
  const auto initial = datagen::uniform<2>(1500, 71);
  idx->build(initial);
  auto snap = idx->snapshot();
  ASSERT_TRUE(snap->isolated());

  auto model = initial;
  const auto fresh = datagen::uniform<2>(1000, 73);
  for (std::size_t i = 0; i < 2000; ++i) {
    if (i % 2 == 0) {
      idx->batch_insert({fresh[i / 2]});
      model.push_back(fresh[i / 2]);
    } else {
      // Erase from a different stretch of the set each time.
      const std::size_t at = (i * 7919) % model.size();
      idx->batch_erase({model[at]});
      model[at] = model.back();
      model.pop_back();
    }
    if (i % 16 == 15) rec.advance_and_reclaim();
  }
  rec.advance_and_reclaim();
  const auto c = rec.counters();
  EXPECT_GE(c.retired, 2000u);
  EXPECT_EQ(c.limbo, 0u);

  expect_matches_model(*snap, initial);
  expect_matches_model(*idx, model);
}

TEST(SnapshotReads, ReadsAgainstASnapshotIgnoreLaterWrites) {
  auto idx = query::make_index<2>(backend::kdtree);
  const auto initial = datagen::uniform<2>(180, 37);
  idx->build(initial);
  auto snap = idx->snapshot();
  idx->batch_insert({point<2>{{999, 999}}});  // invisible to the snapshot

  const auto knn = snap->batch_knn({initial[3]}, 4);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].size(), 4u);
  EXPECT_EQ(knn[0][0], initial[3]);
  const auto ball = snap->batch_ball({point<2>{{999, 999}}}, {0.5});
  ASSERT_EQ(ball.size(), 1u);
  EXPECT_TRUE(ball[0].empty());
  const auto range = snap->batch_range(
      {aabb<2>(point<2>{{-1, -1}}, point<2>{{1000, 1000}})});
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0].size(), initial.size());
}

namespace {

// Brute-force multiset model of a kd-tree index, compared query by query.
struct kd_model {
  std::vector<point<2>> pts;

  void erase(const std::vector<point<2>>& victims) {
    for (const auto& v : victims) {
      auto it = std::find(pts.begin(), pts.end(), v);
      if (it != pts.end()) pts.erase(it);
    }
  }

  // k-NN distances, box and ball multisets of `target` (the live index or
  // a snapshot) must equal brute force over `pts`.
  template <class Target>
  void expect_matches(const Target& target,
                      const std::vector<point<2>>& probes) const {
    EXPECT_EQ(target.size(), pts.size());
    for (std::size_t k : {1u, 8u, 40u}) {
      auto rows = target.batch_knn(probes, k);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        auto expect = testutil::brute_knn_dists(pts, probes[i], k);
        ASSERT_EQ(rows[i].size(), expect.size()) << "k=" << k;
        for (std::size_t j = 0; j < expect.size(); ++j) {
          EXPECT_EQ(rows[i][j].dist_sq(probes[i]), expect[j])
              << "k=" << k << " query " << i << " row " << j;
        }
      }
    }
    std::vector<aabb<2>> boxes;
    std::vector<double> radii;
    for (const auto& p : probes) {
      boxes.emplace_back(p - point<2>{{1.5, 1.5}}, p + point<2>{{1.5, 1.5}});
      radii.push_back(1.5);
    }
    auto box_rows = target.batch_range(boxes);
    auto ball_rows = target.batch_ball(probes, radii);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      std::vector<point<2>> in_box, in_ball;
      for (const auto& p : pts) {
        if (boxes[i].contains(p)) in_box.push_back(p);
        if (p.dist_sq(probes[i]) <= radii[i] * radii[i]) in_ball.push_back(p);
      }
      for (auto* v : {&in_box, &in_ball, &box_rows[i], &ball_rows[i]}) {
        std::sort(v->begin(), v->end());
      }
      EXPECT_EQ(box_rows[i], in_box) << "box " << i;
      EXPECT_EQ(ball_rows[i], in_ball) << "ball " << i;
    }
  }
};

}  // namespace

TEST(SnapshotIsolation, KdtreeSnapshotAcrossBufferedErasesAndInserts) {
  // Every write below stays inside the kd-tree's write buffer (no
  // rebuild), so the snapshot and the live index share one tree and differ
  // only in tombstones and buffered inserts.
  query::kdtree_index<2> idx;
  const point<2> dup{{7.25, 7.25}};
  kd_model model{datagen::uniform<2>(600, 51)};
  model.pts.insert(model.pts.end(), 5, dup);
  idx.build(model.pts);
  const point<2> buffered{{3.5, 9.5}};
  idx.batch_insert({buffered, dup});
  model.pts.push_back(buffered);
  model.pts.push_back(dup);
  const std::size_t rebuilds = idx.rebuild_count();

  const kd_model at_snapshot = model;
  auto snap = idx.snapshot();
  const auto epoch = snap->epoch();
  const std::vector<point<2>> probes{dup, buffered, point<2>{{7, 7}},
                                     point<2>{{12, 3}}, point<2>{{20, 20}}};

  // Three copies of the duplicated value (one buffered, two from the
  // base), the buffered-only point, a point never stored, then new inserts
  // (one of them the duplicated value again).
  const std::vector<point<2>> erases{dup, dup, dup, buffered,
                                     point<2>{{-1, -1}}};
  idx.batch_erase(erases);
  model.erase(erases);
  const auto fresh = datagen::uniform<2>(30, 53);
  idx.batch_insert(fresh);
  idx.batch_insert({dup});
  model.pts.insert(model.pts.end(), fresh.begin(), fresh.end());
  model.pts.push_back(dup);
  ASSERT_EQ(idx.rebuild_count(), rebuilds) << "writes must stay buffered";

  EXPECT_EQ(snap->epoch(), epoch);
  EXPECT_GT(idx.epoch(), epoch);
  at_snapshot.expect_matches(*snap, probes);
  model.expect_matches(idx, probes);

  // Erasing every remaining copy of the duplicated value, a second
  // snapshot, and a further erase keep both views exact.
  const std::vector<point<2>> all_dups(4, dup);
  idx.batch_erase(all_dups);
  model.erase(all_dups);
  const kd_model at_second = model;
  auto snap2 = idx.snapshot();
  idx.batch_erase({fresh[0], fresh[1]});
  model.erase({fresh[0], fresh[1]});
  ASSERT_EQ(idx.rebuild_count(), rebuilds);
  at_snapshot.expect_matches(*snap, probes);
  at_second.expect_matches(*snap2, probes);
  model.expect_matches(idx, probes);
  EXPECT_EQ(std::count(model.pts.begin(), model.pts.end(), dup), 0);
}

TEST(SnapshotIsolation, KdtreeKnnWithFarMoreErasesThanK) {
  // 500 buffered erases around one query and k = 8: filtering erased
  // points only after the search would need the k + 500 nearest here. The
  // live index must skip all of them; a snapshot taken before must still
  // see them.
  query::kdtree_index<2> idx;
  kd_model model{datagen::uniform<2>(4000, 57)};
  idx.build(model.pts);
  const std::size_t rebuilds = idx.rebuild_count();
  const point<2> q = model.pts[17];
  auto snap = idx.snapshot();
  const kd_model at_snapshot = model;

  auto by_dist = model.pts;
  std::sort(by_dist.begin(), by_dist.end(),
            [&](const point<2>& a, const point<2>& b) {
              return a.dist_sq(q) < b.dist_sq(q);
            });
  by_dist.resize(500);
  idx.batch_erase(by_dist);
  model.erase(by_dist);
  ASSERT_EQ(idx.rebuild_count(), rebuilds) << "erases must stay buffered";
  ASSERT_EQ(idx.pending_writes(), 500u);

  model.expect_matches(idx, {q, model.pts[0], point<2>{{30, 30}}});
  at_snapshot.expect_matches(*snap, {q});
  auto row = idx.batch_knn({q}, 8)[0];
  ASSERT_EQ(row.size(), 8u);
  for (const auto& p : row) {
    EXPECT_GT(p.dist_sq(q), by_dist.back().dist_sq(q) - 1e-12);
  }
}
