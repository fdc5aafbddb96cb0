// Erase-path oracle (satellite of the continuous-query PR): TTL expiry
// retires points through batch_erase groups racing the regular drain
// pipeline, so the erase path needs its own adversarial coverage. An
// erase-heavy churn stream — plus deliberately nasty shapes: duplicate
// points inside one batch, erases of points that were never inserted,
// erase-then-reinsert of the same coordinate — runs through the sharded
// service with pipelined concurrent drains on every backend, and every
// response plus the final resident set must match a
// brute-force flat multiset executing the same stream one request at a
// time — a reference that shares no code with any backend, so it checks
// the kd-tree adapter as independently as the other two. Below the
// service, an index-level model test holds every backend to the same
// multiset contract: each erase entry deletes exactly one stored copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "query/query_service.h"
#include "query/workload.h"
#include "test_query_util.h"

using namespace pargeo;
using query::backend;
using query::shard_policy;
using testutil::expect_same_responses;

namespace {

point<2> pt(double x, double y) {
  point<2> p;
  p[0] = x;
  p[1] = y;
  return p;
}

// The reference: a flat multiset, every read a full scan, every erase
// request removing one stored copy (if any).
std::vector<query::response<2>> brute_force_responses(
    std::vector<point<2>>& pts, const std::vector<query::request<2>>& reqs) {
  std::vector<query::response<2>> out(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& r = reqs[i];
    auto& rows = out[i].points;
    out[i].kind = r.kind;
    switch (r.kind) {
      case query::op::insert: pts.push_back(r.p); break;
      case query::op::erase: {
        auto it = std::find(pts.begin(), pts.end(), r.p);
        if (it != pts.end()) pts.erase(it);
        break;
      }
      case query::op::knn:
        rows = pts;
        std::sort(rows.begin(), rows.end(),
                  [&](const point<2>& a, const point<2>& b) {
                    return a.dist_sq(r.p) < b.dist_sq(r.p);
                  });
        rows.resize(std::min(r.k, rows.size()));
        break;
      case query::op::range_box:
        for (const auto& p : pts) {
          if (r.box.contains(p)) rows.push_back(p);
        }
        break;
      case query::op::range_ball:
        for (const auto& p : pts) {
          if (p.dist_sq(r.p) <= r.radius * r.radius) rows.push_back(p);
        }
        break;
    }
  }
  return out;
}

// Runs `reqs` through a sharded service (async pipelined submits, so write
// groups drain concurrently across lanes) and through the brute-force
// reference, then compares every response and the final resident multiset.
void run_against_reference(backend b, shard_policy policy,
                           const std::vector<point<2>>& initial,
                           const std::vector<query::request<2>>& reqs) {
  auto expect = initial;
  const auto want = brute_force_responses(expect, reqs);

  query::service_config cfg;
  cfg.backend = b;
  cfg.shards = 4;
  cfg.policy = policy;
  query::query_service<2> service(cfg);
  service.bootstrap(initial);

  // Pipelined submission: keep many batches in flight at once so erase
  // groups execute concurrently across shard lanes, but from one thread
  // so the global submission order (and therefore the oracle comparison)
  // stays well defined.
  const std::size_t batch = 64;
  std::vector<query::completion<2>> inflight;
  for (std::size_t off = 0; off < reqs.size(); off += batch) {
    const std::size_t end = std::min(reqs.size(), off + batch);
    inflight.push_back(service.submit(
        std::vector<query::request<2>>(reqs.begin() + off,
                                       reqs.begin() + end)));
  }
  std::vector<query::response<2>> got;
  for (auto& c : inflight) {
    auto r = c.get();
    got.insert(got.end(), std::make_move_iterator(r.responses.begin()),
               std::make_move_iterator(r.responses.end()));
  }
  expect_same_responses<2>(reqs, got, want);

  auto have = service.gather();
  std::sort(have.begin(), have.end());
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(have.size(), expect.size());
  ASSERT_EQ(have, expect);
}

class EraseOracle : public ::testing::TestWithParam<backend> {};

// Erase-heavy churn: departures outnumber arrivals, so the stream keeps
// erasing points that recently existed (the FIFO-churn order TTL expiry
// retires them in), interleaved with enough reads to catch a stale or
// double-freed slot immediately.
TEST_P(EraseOracle, EraseHeavyChurnMatchesReference) {
  auto spec = query::make_churn_spec(600, 2000, 0.20, 0.30);
  spec.seed = 11;
  auto initial = query::make_initial<2>(spec);
  const auto reqs = query::make_requests<2>(spec, initial);
  run_against_reference(GetParam(), shard_policy::hash, initial, reqs);
}

// Same stream under spatial striping: erases must route to the owner
// stripe, and a mis-route would strand the point (caught by the final
// gather comparison).
TEST_P(EraseOracle, EraseHeavyChurnSpatialPolicy) {
  auto spec = query::make_churn_spec(600, 1500, 0.25, 0.35);
  spec.seed = 13;
  auto initial = query::make_initial<2>(spec);
  const auto reqs = query::make_requests<2>(spec, initial);
  run_against_reference(GetParam(), shard_policy::spatial, initial, reqs);
}

// Duplicate coordinates inside one batch — inserted twice, erased once,
// erased again, re-inserted — plus erases of points that never existed.
// The service must agree with the reference on every intermediate read
// and on what survives.
TEST_P(EraseOracle, DuplicateAndMissingPointEdgeCases) {
  std::vector<point<2>> initial;
  for (int i = 0; i < 64; ++i) initial.push_back(pt(i % 8, i / 8));

  std::vector<query::request<2>> reqs;
  const aabb<2> everything(pt(-100, -100), pt(100, 100));
  const auto probe = [&] {
    reqs.push_back(query::request<2>::make_range(everything));
    reqs.push_back(query::request<2>::make_knn(pt(3.5, 3.5), 12));
  };

  // Duplicate inserts of a coordinate that already exists, then erase it.
  reqs.push_back(query::request<2>::make_insert(pt(3, 3)));
  reqs.push_back(query::request<2>::make_insert(pt(3, 3)));
  probe();
  reqs.push_back(query::request<2>::make_erase(pt(3, 3)));
  probe();
  reqs.push_back(query::request<2>::make_erase(pt(3, 3)));
  probe();

  // Erase points that were never inserted (inside and outside the bbox).
  reqs.push_back(query::request<2>::make_erase(pt(3.25, 3.25)));
  reqs.push_back(query::request<2>::make_erase(pt(-50, 99)));
  probe();

  // Erase-then-reinsert the same coordinate within one batch window.
  reqs.push_back(query::request<2>::make_erase(pt(5, 5)));
  reqs.push_back(query::request<2>::make_insert(pt(5, 5)));
  probe();

  // A batch that erases the same missing point many times over.
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(query::request<2>::make_erase(pt(42, 42)));
  }
  probe();

  run_against_reference(GetParam(), shard_policy::hash, initial, reqs);
}

// Points stored twice where a shard keeps most of its points in trees,
// not in a staging buffer: more than 1,024 points per shard (the BDL
// buffer size), so one copy sits in a tree and the fresh one in the
// buffer. One erase request must delete exactly one of them.
TEST_P(EraseOracle, ErasingAPointStoredTwiceDeletesOneCopy) {
  std::vector<point<2>> initial;
  for (int i = 0; i < 6000; ++i) initial.push_back(pt(i % 100, i / 100));

  std::vector<query::request<2>> reqs;
  const aabb<2> corner(pt(-1, -1), pt(12, 12));
  const auto probe = [&] {
    reqs.push_back(query::request<2>::make_range(corner));
    reqs.push_back(query::request<2>::make_knn(pt(5.5, 5.5), 9));
  };
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(query::request<2>::make_insert(pt(i, i)));
  }
  probe();
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(query::request<2>::make_erase(pt(i, i)));
  }
  probe();
  // Three copies after a double insert; one batch erases two of them.
  for (int i = 0; i < 10; i += 2) {
    reqs.push_back(query::request<2>::make_insert(pt(i, 10 - i)));
    reqs.push_back(query::request<2>::make_insert(pt(i, 10 - i)));
  }
  probe();
  for (int i = 0; i < 10; i += 2) {
    reqs.push_back(query::request<2>::make_erase(pt(i, 10 - i)));
    reqs.push_back(query::request<2>::make_erase(pt(i, 10 - i)));
  }
  probe();

  run_against_reference(GetParam(), shard_policy::hash, initial, reqs);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EraseOracle,
    ::testing::Values(backend::kdtree, backend::zdtree, backend::bdltree),
    [](const auto& info) {
      return std::string(query::backend_name(info.param));
    });

// Index-level multiset model, below the service: random insert batches
// and erase batches over a small coordinate grid (so most points are
// stored several times), erase batches both of distinct entries and with
// entries repeated, plus entries matching nothing. After every batch the
// backend's size and contents must equal a flat multiset where each
// erase entry removes one stored copy. The BDL-tree gets an 8-point
// buffer so nearly every point lives in its forest of trees.
class EraseModel : public ::testing::TestWithParam<backend> {};

std::unique_ptr<query::spatial_index<2>> small_buffer_index(backend b) {
  if (b == backend::bdltree) {
    return std::make_unique<query::bdltree_index<2>>(
        bdltree::split_policy::object_median, 8);
  }
  return query::make_index<2>(b);
}

TEST_P(EraseModel, EveryEntryErasesExactlyOneStoredCopy) {
  auto idx = small_buffer_index(GetParam());
  std::mt19937 rng(29);
  const auto grid_point = [&] {
    return pt(static_cast<double>(rng() % 12), static_cast<double>(rng() % 12));
  };
  std::vector<point<2>> model;
  for (int i = 0; i < 400; ++i) model.push_back(grid_point());
  idx->build(model);
  for (int round = 0; round < 400; ++round) {
    std::vector<point<2>> batch;
    const std::size_t n = 1 + rng() % 48;
    if (round % 3 == 0 || model.empty()) {
      for (std::size_t i = 0; i < n; ++i) batch.push_back(grid_point());
      idx->batch_insert(batch);
      model.insert(model.end(), batch.begin(), batch.end());
    } else {
      const bool repeat = round % 3 == 2;
      for (std::size_t i = 0; i < n && !model.empty(); ++i) {
        const point<2> p = rng() % 8 == 0 ? pt(-1, -1)  // never stored
                                          : model[rng() % model.size()];
        const std::size_t copies = repeat ? 1 + rng() % 3 : 1;
        for (std::size_t c = 0; c < copies; ++c) batch.push_back(p);
      }
      if (!repeat) {
        std::sort(batch.begin(), batch.end());
        batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
      }
      idx->batch_erase(batch);
      for (const auto& p : batch) {
        const auto it = std::find(model.begin(), model.end(), p);
        if (it != model.end()) model.erase(it);
      }
    }
    ASSERT_EQ(idx->size(), model.size()) << "round " << round;
    auto have = idx->gather();
    auto want = model;
    std::sort(have.begin(), have.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(have, want) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EraseModel,
    ::testing::Values(backend::kdtree, backend::zdtree, backend::bdltree),
    [](const auto& info) {
      return std::string(query::backend_name(info.param));
    });

}  // namespace
