// Static kd-tree in van Emde Boas (cache-oblivious) layout — the building
// block of the BDL-tree (paper §5, Appendix C.1, Algorithm 1).
//
// Nodes live in one contiguous array ordered by the vEB recursion: the top
// half of the levels is laid out first, followed by the bottom subtrees
// left to right, recursively. Points are owned by the tree in a permuted
// buffer; leaves reference contiguous ranges. Deletion tombstones points
// and maintains live counts so empty subtrees are skipped (the array
// analogue of Algorithm 2's NULL-collapse).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/knn_buffer.h"
#include "parallel/parallel.h"

namespace pargeo::bdltree {

enum class split_policy { object_median, spatial_median };

template <int D>
class veb_tree {
 public:
  static constexpr std::size_t kLeafSize = 16;

  struct node {
    aabb<D> box;
    std::size_t lo = 0, hi = 0;  // point range
    std::size_t live = 0;        // non-tombstoned points below
    double split_val = 0;
    int split_dim = -1;          // -1 for leaves
    std::size_t mid = 0;         // first index of the right child's range
  };

  veb_tree(std::vector<point<D>> pts, split_policy policy)
      : points_(std::move(pts)), policy_(policy) {
    const std::size_t n = points_.size();
    alive_.assign(n, 1);
    live_ = n;
    if (n == 0) return;
    const std::size_t nLeaves =
        std::max<std::size_t>(1, (n + kLeafSize - 1) / kLeafSize);
    levels_ = 1 + static_cast<int>(std::ceil(std::log2(
                      static_cast<double>(nLeaves))));
    nodes_.assign((std::size_t{1} << levels_) - 1, node{});
    build_rec(0, 0, n, 0, levels_, /*top=*/false);
    recompute_boxes(0, levels_);
  }

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  int levels() const { return levels_; }
  const node& node_at(std::size_t i) const { return nodes_[i]; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// All live points, in storage order.
  std::vector<point<D>> gather() const {
    std::vector<point<D>> out;
    out.reserve(live_);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i]) out.push_back(points_[i]);
    }
    return out;
  }

  /// Tombstones one stored copy per entry of `batch` (an entry repeated m
  /// times deletes up to m copies). Entries that match no live copy are
  /// appended to `unmatched` when given. Returns #deleted.
  std::size_t erase(const std::vector<point<D>>& batch,
                    std::vector<point<D>>* unmatched = nullptr) {
    if (batch.empty()) return 0;
    std::vector<point<D>> left;
    std::size_t removed = 0;
    if (points_.empty()) {
      left = batch;
    } else {
      removed = erase_rec(0, batch, left);
      live_ -= removed;
    }
    if (unmatched) {
      unmatched->insert(unmatched->end(), left.begin(), left.end());
    }
    return removed;
  }

  /// Accumulates the k nearest live points to `q` into `buf`. Entry ids
  /// are the point addresses reinterpreted as size_t (stable for the
  /// tree's lifetime), so one buffer can be shared across trees and
  /// decoded with decode_id.
  void knn(const point<D>& q, kdtree::knn_buffer& buf) const {
    if (live_ == 0) return;
    knn_rec(0, q, buf);
  }

  static const point<D>& decode_id(std::size_t id) {
    return *reinterpret_cast<const point<D>*>(id);
  }

  /// Appends all live points within `radius` of `center` to `out`.
  void range_ball(const point<D>& center, double radius,
                  std::vector<point<D>>& out) const {
    if (live_ == 0) return;
    range_rec(0, center, radius * radius, out);
  }

  /// Appends all live points inside `query_box` to `out`.
  void range_box(const aabb<D>& query_box, std::vector<point<D>>& out) const {
    if (live_ == 0) return;
    range_box_rec(0, query_box, out);
  }

  /// The point stored at slot i (used with knn buffer ids).
  const point<D>& point_at(std::size_t i) const { return points_[i]; }

 private:
  // --- construction (paper Algorithm 1) --------------------------------

  static int hyperceil(int x) {
    int p = 1;
    while (p < x) p <<= 1;
    return p;
  }

  // Builds an l-level subtree rooted at node index `idx` over points
  // [lo, hi). In top mode every level is internal (leaf level partitions
  // its range for the bottom subtrees); in bottom mode the last level
  // stores leaves. Returns the frontier child ranges in left-to-right
  // order (top mode), empty otherwise.
  std::vector<std::pair<std::size_t, std::size_t>> build_rec(
      std::size_t idx, std::size_t lo, std::size_t hi, int dim, int l,
      bool top) {
    if (l == 1) {
      node& nd = nodes_[idx];
      nd.lo = lo;
      nd.hi = hi;
      nd.live = hi - lo;
      if (!top) {
        nd.split_dim = -1;  // leaf (holds its whole range)
        return {};
      }
      const std::size_t mid = partition_median(lo, hi, dim, &nd.split_val);
      nd.split_dim = dim;
      nd.mid = mid;
      return {{lo, mid}, {mid, hi}};
    }
    const int lb = hyperceil((l + 1) / 2);
    const int lt = l - lb;
    auto ranges = build_rec(idx, lo, hi, dim, lt, /*top=*/true);
    const std::size_t nSub = std::size_t{1} << lt;
    const std::size_t subSize = (std::size_t{1} << lb) - 1;
    const std::size_t base = idx + nSub - 1;
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> sub(nSub);
    par::parallel_for(
        0, nSub,
        [&](std::size_t i) {
          sub[i] = build_rec(base + i * subSize, ranges[i].first,
                             ranges[i].second, (dim + lt) % D, lb, top);
        },
        1);
    if (!top) return {};
    std::vector<std::pair<std::size_t, std::size_t>> frontier;
    frontier.reserve(nSub * 2);
    for (auto& s : sub) {
      frontier.insert(frontier.end(), s.begin(), s.end());
    }
    return frontier;
  }

  // Splits [lo, hi) along `dim` (object median or spatial median with an
  // object-median fallback) and returns the split position.
  std::size_t partition_median(std::size_t lo, std::size_t hi, int dim,
                               double* split_val) {
    const std::size_t n = hi - lo;
    if (n <= 1) {
      *split_val = n == 1 ? points_[lo][dim] : 0.0;
      return hi;
    }
    auto cmp = [dim](const point<D>& a, const point<D>& b) {
      return a[dim] < b[dim];
    };
    if (policy_ == split_policy::spatial_median) {
      double mn = points_[lo][dim], mx = mn;
      for (std::size_t i = lo; i < hi; ++i) {
        mn = std::min(mn, points_[i][dim]);
        mx = std::max(mx, points_[i][dim]);
      }
      const double pivot = 0.5 * (mn + mx);
      auto it = std::partition(
          points_.begin() + lo, points_.begin() + hi,
          [&](const point<D>& p) { return p[dim] < pivot; });
      const std::size_t mid = it - points_.begin();
      if (mid != lo && mid != hi) {
        *split_val = pivot;
        return mid;
      }
      // Degenerate cut: fall through to the object median.
    }
    auto midIt = points_.begin() + lo + n / 2;
    std::nth_element(points_.begin() + lo, midIt, points_.begin() + hi, cmp);
    *split_val = (*midIt)[dim];
    return lo + n / 2;
  }

  // Post-build pass computing exact bounding boxes bottom-up (vEB index
  // order is not level order, so recurse structurally).
  aabb<D> recompute_boxes(std::size_t idx, int l) {
    node& nd = nodes_[idx];
    if (nd.split_dim < 0) {
      aabb<D> b;
      for (std::size_t i = nd.lo; i < nd.hi; ++i) b.extend(points_[i]);
      nd.box = b;
      return b;
    }
    auto [li, ll] = left_child(idx);
    auto [ri, rl] = right_child(idx);
    aabb<D> b = recompute_boxes(li, ll);
    b.extend(recompute_boxes(ri, rl));
    nd.box = b;
    return b;
  }

  // --- vEB child index arithmetic --------------------------------------
  //
  // Child lookup must replay the layout recursion. We precompute nothing:
  // the recursion depth is O(log log n) per step, cheap relative to the
  // geometry work at each node. `l` is the number of levels in the
  // subtree rooted at the queried node's *position* in the recursion; the
  // public entry is (idx=0, l=levels_).
  //
  // Within a subtree of l levels laid out at base index b, the top half
  // has lt levels; a node at depth < lt of the top half keeps its
  // relative position; crossing into the bottom half selects subtree
  // rank r, at base b + (2^lt - 1) + r * (2^lb - 1).

  std::pair<std::size_t, int> left_child(std::size_t idx) const {
    return child_in(0, idx, levels_, false);
  }
  std::pair<std::size_t, int> right_child(std::size_t idx) const {
    return child_in(0, idx, levels_, true);
  }

  // Computes the array index of the left/right child of the node at
  // relative index `rel` within a subtree of `l` levels at array base
  // `base`. Returns {absolute child index, levels of the child subtree}.
  std::pair<std::size_t, int> child_in(std::size_t base, std::size_t rel,
                                       int l, bool right) const {
    if (l == 1) {
      // Child lives outside this subtree — handled by caller recursion.
      return {SIZE_MAX, 0};
    }
    const int lb = hyperceil((l + 1) / 2);
    const int lt = l - lb;
    const std::size_t topSize = (std::size_t{1} << lt) - 1;
    const std::size_t subSize = (std::size_t{1} << lb) - 1;
    if (rel < topSize) {
      // Node is in the top half (a subtree of lt levels at the same base).
      if (lt == 1) {
        // Node is the root of the top half and its children are bottom
        // subtree roots 0 (left) and 1 (right).
        return {base + topSize + (right ? subSize : 0),
                lb};
      }
      auto r = child_in(base, rel, lt, right);
      if (r.first != SIZE_MAX) return r;
      // Child crosses from the top half into the bottom half: the node is
      // a leaf of the top half; its leaf rank determines the subtree.
      const std::size_t leafRank = leaf_rank(base, rel, lt);
      const std::size_t subtree = leafRank * 2 + (right ? 1 : 0);
      return {base + topSize + subtree * subSize, lb};
    }
    // Node is in the bottom half: find its subtree and recurse.
    const std::size_t off = rel - topSize;
    const std::size_t subtree = off / subSize;
    const std::size_t subRel = off % subSize;
    auto r = child_in(base + topSize + subtree * subSize, subRel, lb, right);
    return r;
  }

  // Rank (left-to-right) of a node among the leaves of the subtree of `l`
  // levels at `base`, given its relative index; the node must be at the
  // subtree's last level.
  std::size_t leaf_rank(std::size_t base, std::size_t rel, int l) const {
    if (l == 1) return 0;
    const int lb = hyperceil((l + 1) / 2);
    const int lt = l - lb;
    const std::size_t topSize = (std::size_t{1} << lt) - 1;
    const std::size_t subSize = (std::size_t{1} << lb) - 1;
    const std::size_t leavesPerSub = std::size_t{1} << (lb - 1);
    // Last-level nodes are always in the bottom half.
    const std::size_t off = rel - topSize;
    const std::size_t subtree = off / subSize;
    const std::size_t subRel = off % subSize;
    return subtree * leavesPerSub +
           leaf_rank(base + topSize + subtree * subSize, subRel, lb);
  }

  // --- queries ----------------------------------------------------------

  void knn_rec(std::size_t idx, const point<D>& q,
               kdtree::knn_buffer& buf) const {
    const node& nd = nodes_[idx];
    if (nd.live == 0) return;
    if (nd.split_dim < 0) {
      for (std::size_t i = nd.lo; i < nd.hi; ++i) {
        if (!alive_[i]) continue;
        const double d = points_[i].dist_sq(q);
        if (d < buf.bound()) {
          buf.insert(d, reinterpret_cast<std::size_t>(&points_[i]));
        }
      }
      return;
    }
    auto [li, ll] = left_child(idx);
    auto [ri, rl] = right_child(idx);
    (void)ll;
    (void)rl;
    std::size_t nearIdx = li, farIdx = ri;
    if (q[nd.split_dim] >= nd.split_val) std::swap(nearIdx, farIdx);
    if (nodes_[nearIdx].box.dist_sq(q) < buf.bound()) {
      knn_rec(nearIdx, q, buf);
    }
    if (nodes_[farIdx].box.dist_sq(q) < buf.bound()) {
      knn_rec(farIdx, q, buf);
    }
  }

  void range_rec(std::size_t idx, const point<D>& c, double r_sq,
                 std::vector<point<D>>& out) const {
    const node& nd = nodes_[idx];
    if (nd.live == 0 || nd.box.dist_sq(c) > r_sq) return;
    if (nd.split_dim < 0) {
      for (std::size_t i = nd.lo; i < nd.hi; ++i) {
        if (alive_[i] && points_[i].dist_sq(c) <= r_sq) {
          out.push_back(points_[i]);
        }
      }
      return;
    }
    auto [li, ll] = left_child(idx);
    auto [ri, rl] = right_child(idx);
    (void)ll;
    (void)rl;
    range_rec(li, c, r_sq, out);
    range_rec(ri, c, r_sq, out);
  }

  void range_box_rec(std::size_t idx, const aabb<D>& qb,
                     std::vector<point<D>>& out) const {
    const node& nd = nodes_[idx];
    if (nd.live == 0 || !nd.box.intersects(qb)) return;
    if (nd.split_dim < 0) {
      for (std::size_t i = nd.lo; i < nd.hi; ++i) {
        if (alive_[i] && qb.contains(points_[i])) out.push_back(points_[i]);
      }
      return;
    }
    auto [li, ll] = left_child(idx);
    auto [ri, rl] = right_child(idx);
    (void)ll;
    (void)rl;
    range_box_rec(li, qb, out);
    range_box_rec(ri, qb, out);
  }

  // Batch erase per paper Algorithm 2: partition the query set around the
  // split and recurse; leaves do linear matching. Each entry of q deletes
  // at most one live copy; entries that delete nothing are appended to
  // `left`. Returns #deleted.
  std::size_t erase_rec(std::size_t idx, const std::vector<point<D>>& q,
                        std::vector<point<D>>& left) {
    if (q.empty()) return 0;
    node& nd = nodes_[idx];
    if (nd.live == 0) {
      left.insert(left.end(), q.begin(), q.end());
      return 0;
    }
    if (nd.split_dim < 0) {
      std::size_t removed = 0;
      for (const auto& p : q) {
        std::size_t i = nd.lo;
        while (i < nd.hi && !(alive_[i] && points_[i] == p)) ++i;
        if (i < nd.hi) {
          alive_[i] = 0;
          ++removed;
        } else {
          left.push_back(p);
        }
      }
      nd.live -= removed;
      return removed;
    }
    const int dim = nd.split_dim;
    const double sv = nd.split_val;
    // Median partitions may store split-value duplicates on either side,
    // so an entry equal to the split tries the left child first and, if
    // it deleted nothing there, the right child — never both.
    std::vector<point<D>> ql, qr;
    bool any_equal = false;
    for (const auto& p : q) {
      if (p[dim] < sv) {
        ql.push_back(p);
      } else if (p[dim] > sv) {
        qr.push_back(p);
      } else {
        ql.push_back(p);
        any_equal = true;
      }
    }
    const std::size_t li = left_child(idx).first;
    const std::size_t ri = right_child(idx).first;
    std::size_t removed = 0;
    if (any_equal) {
      std::vector<point<D>> left_l;
      removed = erase_rec(li, ql, left_l);
      for (const auto& p : left_l) {
        if (p[dim] == sv) {
          qr.push_back(p);
        } else {
          left.push_back(p);
        }
      }
      removed += erase_rec(ri, qr, left);
    } else {
      // Disjoint entry sets: the children may run in parallel.
      std::vector<point<D>> left_l, left_r;
      std::size_t rem_l = 0, rem_r = 0;
      auto do_l = [&] { rem_l = erase_rec(li, ql, left_l); };
      auto do_r = [&] { rem_r = erase_rec(ri, qr, left_r); };
      if (q.size() > 4096) {
        par::par_do(do_l, do_r);
      } else {
        do_l();
        do_r();
      }
      removed = rem_l + rem_r;
      left.insert(left.end(), left_l.begin(), left_l.end());
      left.insert(left.end(), left_r.begin(), left_r.end());
    }
    nd.live -= removed;
    return removed;
  }

  std::vector<point<D>> points_;
  std::vector<uint8_t> alive_;
  std::vector<node> nodes_;
  split_policy policy_;
  std::size_t live_ = 0;
  int levels_ = 0;
};

}  // namespace pargeo::bdltree
