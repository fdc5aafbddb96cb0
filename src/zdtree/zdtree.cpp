#include "zdtree/zdtree.h"

#include <algorithm>
#include <atomic>

#include "mortonsort/mortonsort.h"
#include "parallel/parallel.h"

namespace pargeo::zdtree {

namespace {

// Fixed quantization universe: Morton codes must stay comparable across
// batches, so the grid cannot follow the data's bounding box. All library
// generators emit coordinates well inside this range.
constexpr double kUniverse = 1 << 21;

template <int D>
point<D> universe_lo() {
  point<D> p;
  for (int d = 0; d < D; ++d) p[d] = -kUniverse;
  return p;
}
template <int D>
point<D> universe_hi() {
  point<D> p;
  for (int d = 0; d < D; ++d) p[d] = kUniverse;
  return p;
}

// k-NN candidate ids are (chunk index, slot) pairs, so distance ties break
// in Morton order, as they did over the flat array.
constexpr int kSlotBits = 32;
constexpr std::size_t kSlotMask = (std::size_t{1} << kSlotBits) - 1;

// Chunks per parallel task when rebuilding touched chunks: one chunk is a
// few µs of work, so a write that touches only a handful stays serial.
constexpr std::size_t kChunkGrain = 8;

// First index in [lo, n) at which `before` turns false (it must hold on a
// prefix of the range), found by doubling steps from lo: a cursor moving
// forward over sorted data pays O(log distance) per step, so a big batch
// costs a merge-like walk and a small one O(log n) per item.
template <class Before>
std::size_t gallop(std::size_t lo, std::size_t n, const Before& before) {
  std::size_t hi = lo;
  for (std::size_t step = 1; hi < n && before(hi); step <<= 1) {
    lo = hi + 1;
    hi = lo + step;
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Smallest power of two >= n (at least 1): the leaf count of a box heap.
std::size_t heap_leaves(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Fills the inner nodes of a heap whose leaves are at [p, 2p).
template <int D>
void fill_heap(std::vector<aabb<D>>& boxes, std::size_t p) {
  for (std::size_t i = p - 1; i >= 1; --i) {
    boxes[i] = boxes[2 * i];
    boxes[i].extend(boxes[2 * i + 1]);
  }
}

}  // namespace

template <int D>
typename zd_tree<D>::item zd_tree<D>::make_item(const point<D>& p) const {
  return {mortonsort::morton_code<D>(p, universe_lo<D>(), universe_hi<D>()),
          p};
}

template <int D>
std::vector<typename zd_tree<D>::item> zd_tree<D>::sorted_items(
    const std::vector<point<D>>& pts) const {
  std::vector<item> items(pts.size());
  par::parallel_for(0, pts.size(),
                    [&](std::size_t i) { items[i] = make_item(pts[i]); });
  par::sort(items, [](const item& a, const item& b) { return a < b; });
  return items;
}

template <int D>
typename zd_tree<D>::chunk_ptr zd_tree<D>::make_chunk(
    std::vector<item> items) {
  auto c = std::make_shared<chunk>();
  const std::size_t n = items.size();
  const std::size_t segs = (n + kLeaf - 1) / kLeaf;
  const std::size_t p = heap_leaves(segs);
  c->num_leaf_segments = p;
  c->boxes.assign(2 * p, aabb<D>{});
  for (std::size_t s = 0; s < segs; ++s) {
    aabb<D> b;
    const std::size_t hi = std::min(n, (s + 1) * kLeaf);
    for (std::size_t i = s * kLeaf; i < hi; ++i) b.extend(items[i].p);
    c->boxes[p + s] = b;
  }
  fill_heap(c->boxes, p);
  c->first = items.front();
  c->items = std::move(items);
  return c;
}

template <int D>
std::vector<typename zd_tree<D>::item> zd_tree<D>::take_items(
    std::size_t ci) {
  // A chunk no other tree version references can be consumed: nothing
  // else can observe it, and the write replaces it anyway. (Chunks are
  // created non-const, so the cast is sound.) The fence orders this write
  // after the reads of whichever thread dropped the last other reference.
  if (chunks_[ci].use_count() == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return std::move(const_cast<chunk&>(*chunks_[ci]).items);
  }
  return chunks_[ci]->items;
}

template <int D>
void zd_tree<D>::cut(std::vector<item>&& run,
                     std::vector<std::vector<item>>& out) {
  const std::size_t m = run.size();
  if (m <= 2 * kChunk) {
    out.push_back(std::move(run));
    return;
  }
  // Each piece takes C to 2C items and leaves at least C for the rest. In
  // that window, cut where neighbouring codes differ in the highest bit,
  // i.e. on the boundary of the largest Morton cell, so a chunk covers
  // whole cells and its box stays tight. Evenly spaced cuts straddle cells:
  // on uniform 2D data they made k-NN look at up to 20% more points than
  // the flat array did, and these cuts about 6-20% fewer.
  std::size_t lo = 0;
  while (m - lo > 2 * kChunk) {
    std::size_t at = lo + kChunk;
    uint64_t best = 0;
    for (std::size_t i = at; i <= std::min(lo + 2 * kChunk, m - kChunk); ++i) {
      const uint64_t diff = run[i - 1].code ^ run[i].code;
      if (diff > best) {
        best = diff;
        at = i;
      }
    }
    out.emplace_back(run.begin() + lo, run.begin() + at);
    lo = at;
  }
  out.emplace_back(run.begin() + lo, run.end());
}

template <int D>
void zd_tree<D>::install(std::vector<chunk_ptr> next,
                         std::vector<std::vector<item>> fresh) {
  std::vector<std::size_t> slots;
  slots.reserve(fresh.size());
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (!next[i]) slots.push_back(i);
  }
  par::parallel_for(
      0, slots.size(),
      [&](std::size_t j) { next[slots[j]] = make_chunk(std::move(fresh[j])); },
      kChunkGrain);
  chunks_ = std::move(next);

  const std::size_t p = heap_leaves(chunks_.size());
  auto top = std::make_shared<std::vector<aabb<D>>>(2 * p);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    (*top)[p + i] = chunks_[i]->boxes[1];
  }
  fill_heap(*top, p);
  top_ = std::move(top);
  num_top_leaves_ = p;
}

template <int D>
void zd_tree<D>::assign(std::vector<item> sorted) {
  std::vector<std::vector<item>> fresh;
  if (!sorted.empty()) cut(std::move(sorted), fresh);
  std::vector<chunk_ptr> slots(fresh.size());
  install(std::move(slots), std::move(fresh));
}

template <int D>
zd_tree<D>::zd_tree(const std::vector<point<D>>& pts) {
  size_ = pts.size();
  assign(sorted_items(pts));
}

template <int D>
void zd_tree<D>::splice(const std::vector<touch>& touches,
                        std::vector<std::vector<item>> updated) {
  // Untouched chunks move over as they are. A rebuilt run under C/2 items
  // is carried into its right neighbour (the last one into its left), so
  // every chunk but a lone one keeps at least C/2 items and the chunk
  // count stays O(n/C).
  std::vector<chunk_ptr> next;
  next.reserve(chunks_.size() + touches.size());
  std::vector<std::vector<item>> fresh;  // one per null slot of `next`
  std::vector<item> carry;
  const auto emit = [&] {
    const std::size_t before = fresh.size();
    cut(std::move(carry), fresh);
    next.resize(next.size() + fresh.size() - before);
    carry.clear();
  };
  std::size_t t = 0;
  for (std::size_t ci = 0; ci < chunks_.size(); ++ci) {
    if (t < touches.size() && touches[t].ci == ci) {
      auto& run = updated[t++];
      if (carry.empty()) {
        carry = std::move(run);
      } else {
        carry.insert(carry.end(), run.begin(), run.end());
      }
    } else if (!carry.empty()) {
      const auto& its = chunks_[ci]->items;
      carry.insert(carry.end(), its.begin(), its.end());
    } else {
      next.push_back(std::move(chunks_[ci]));
      continue;
    }
    if (carry.size() >= kChunk / 2) emit();
  }
  if (!carry.empty() && !next.empty()) {
    std::vector<item> left;
    if (next.back()) {
      left = next.back()->items;
    } else {
      left = std::move(fresh.back());
      fresh.pop_back();
    }
    next.pop_back();
    left.insert(left.end(), carry.begin(), carry.end());
    carry = std::move(left);
  }
  if (!carry.empty()) emit();
  install(std::move(next), std::move(fresh));
}

template <int D>
void zd_tree<D>::insert(const std::vector<point<D>>& batch) {
  if (batch.empty()) return;
  auto add = sorted_items(batch);
  size_ += add.size();
  if (chunks_.empty()) {
    assign(std::move(add));
    return;
  }
  // Route each run of the batch to the last chunk whose first key is <= it
  // (the first chunk for keys below every first key); the run ends at the
  // next chunk's first key, so merging keeps the global order.
  std::vector<touch> touches;
  std::size_t ci = 0;
  for (std::size_t i = 0; i < add.size();) {
    ci = gallop(ci + 1, chunks_.size(),
                [&](std::size_t c) { return !(add[i] < chunks_[c]->first); }) -
         1;
    std::size_t end = add.size();
    if (ci + 1 < chunks_.size()) {
      const item& bound = chunks_[ci + 1]->first;
      end = gallop(i, add.size(),
                   [&](std::size_t k) { return add[k] < bound; });
    }
    touches.push_back({ci, i, end});
    i = end;
  }
  std::vector<std::vector<item>> updated(touches.size());
  par::parallel_for(
      0, touches.size(),
      [&](std::size_t j) {
        const auto& t = touches[j];
        const auto& its = chunks_[t.ci]->items;
        updated[j].resize(its.size() + (t.hi - t.lo));
        std::merge(its.begin(), its.end(), add.begin() + t.lo,
                   add.begin() + t.hi, updated[j].begin());
      },
      kChunkGrain);
  splice(touches, std::move(updated));
}

template <int D>
void zd_tree<D>::erase(const std::vector<point<D>>& batch) {
  if (batch.empty() || size_ == 0) return;
  const auto del = sorted_items(batch);
  // Assign each distinct batch item x with multiplicity m to the chunks
  // holding copies of x, taking up to m copies in Morton order. A run of
  // equal items can span chunks, so the search for x starts in the last
  // chunk whose first key is < x. The batch is visited in order, so the
  // cursor (chunk ci, slot pos) only moves forward.
  std::vector<item> ops;  // matched deletions, grouped by chunk
  std::vector<touch> touches;
  std::size_t ci = 0, pos = 0;
  for (std::size_t i = 0; i < del.size();) {
    const item& x = del[i];
    std::size_t j = i + 1;
    while (j < del.size() && del[j] == x) ++j;
    std::size_t want = j - i;
    i = j;
    const std::size_t start =
        gallop(ci + 1, chunks_.size(),
               [&](std::size_t c) { return chunks_[c]->first < x; }) -
        1;
    if (start > ci) ci = start, pos = 0;
    for (std::size_t c = ci;
         want > 0 && c < chunks_.size() && !(x < chunks_[c]->first); ++c) {
      const auto& its = chunks_[c]->items;
      const std::size_t lo = gallop(c == ci ? pos : 0, its.size(),
                                    [&](std::size_t k) { return its[k] < x; });
      std::size_t hi = lo;
      while (hi < its.size() && hi - lo < want && its[hi] == x) ++hi;
      if (hi == lo) continue;
      if (touches.empty() || touches.back().ci != c) {
        touches.push_back({c, ops.size(), ops.size()});
      }
      ops.insert(ops.end(), hi - lo, x);
      touches.back().hi = ops.size();
      want -= hi - lo;
      ci = c;
      pos = hi;
    }
  }
  if (ops.empty()) return;
  size_ -= ops.size();
  std::vector<std::vector<item>> updated(touches.size());
  par::parallel_for(
      0, touches.size(),
      [&](std::size_t j) {
        const auto& t = touches[j];
        auto& run = updated[j] = take_items(t.ci);
        // Co-scan removing one stored copy per matched deletion.
        std::size_t di = t.lo, w = 0;
        for (const auto& it : run) {
          if (di < t.hi && ops[di] == it) {
            ++di;
          } else {
            run[w++] = it;
          }
        }
        run.resize(w);
      },
      kChunkGrain);
  splice(touches, std::move(updated));
}

template <int D>
void zd_tree<D>::knn_rec(std::size_t node, std::size_t lo, std::size_t hi,
                         const point<D>& q, kdtree::knn_buffer& buf) const {
  const auto& top = *top_;
  if (top[node].empty() || top[node].dist_sq(q) >= buf.bound()) return;
  if (hi - lo == 1) {
    const chunk& c = *chunks_[lo];
    knn_chunk(c, lo << kSlotBits, 1, 0, c.num_leaf_segments, q, buf);
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  const std::size_t l = 2 * node, r = 2 * node + 1;
  const double dl = top[l].empty() ? -1 : top[l].dist_sq(q);
  const double dr = top[r].empty() ? -1 : top[r].dist_sq(q);
  if (dr >= 0 && (dl < 0 || dr < dl)) {
    knn_rec(r, mid, hi, q, buf);
    knn_rec(l, lo, mid, q, buf);
  } else {
    knn_rec(l, lo, mid, q, buf);
    knn_rec(r, mid, hi, q, buf);
  }
}

template <int D>
void zd_tree<D>::knn_chunk(const chunk& c, std::size_t id_base,
                           std::size_t node, std::size_t lo, std::size_t hi,
                           const point<D>& q, kdtree::knn_buffer& buf) const {
  const auto& boxes = c.boxes;
  if (boxes[node].empty() || boxes[node].dist_sq(q) >= buf.bound()) return;
  if (hi - lo == 1) {
    const std::size_t s = lo * kLeaf;
    const std::size_t e = std::min(c.items.size(), s + kLeaf);
    for (std::size_t i = s; i < e; ++i) {
      const double d = c.items[i].p.dist_sq(q);
      if (d < buf.bound()) buf.insert(d, id_base | i);
    }
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  const std::size_t l = 2 * node, r = 2 * node + 1;
  const double dl = boxes[l].empty() ? -1 : boxes[l].dist_sq(q);
  const double dr = boxes[r].empty() ? -1 : boxes[r].dist_sq(q);
  if (dr >= 0 && (dl < 0 || dr < dl)) {
    knn_chunk(c, id_base, r, mid, hi, q, buf);
    knn_chunk(c, id_base, l, lo, mid, q, buf);
  } else {
    knn_chunk(c, id_base, l, lo, mid, q, buf);
    knn_chunk(c, id_base, r, mid, hi, q, buf);
  }
}

template <int D>
std::vector<std::vector<point<D>>> zd_tree<D>::knn(
    const std::vector<point<D>>& queries, std::size_t k) const {
  std::vector<std::vector<point<D>>> out(queries.size());
  if (size_ == 0 || k == 0) return out;
  const std::size_t kk = std::min(k, size_);
  par::parallel_for(
      0, queries.size(),
      [&](std::size_t qi) {
        kdtree::knn_buffer buf(kk);
        knn_rec(1, 0, num_top_leaves_, queries[qi], buf);
        auto entries = buf.finish();
        out[qi].reserve(entries.size());
        for (const auto& e : entries) {
          out[qi].push_back(
              chunks_[e.id >> kSlotBits]->items[e.id & kSlotMask].p);
        }
      },
      16);
  return out;
}

template <int D>
template <class Keep>
void zd_tree<D>::range_rec(std::size_t node, std::size_t lo, std::size_t hi,
                           const aabb<D>& query_box, const Keep& keep,
                           std::vector<point<D>>& out) const {
  const auto& top = *top_;
  if (top[node].empty() || !top[node].intersects(query_box)) return;
  if (hi - lo == 1) {
    const chunk& c = *chunks_[lo];
    range_chunk(c, 1, 0, c.num_leaf_segments, query_box, keep, out);
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  range_rec(2 * node, lo, mid, query_box, keep, out);
  range_rec(2 * node + 1, mid, hi, query_box, keep, out);
}

template <int D>
template <class Keep>
void zd_tree<D>::range_chunk(const chunk& c, std::size_t node, std::size_t lo,
                             std::size_t hi, const aabb<D>& query_box,
                             const Keep& keep,
                             std::vector<point<D>>& out) const {
  if (c.boxes[node].empty() || !c.boxes[node].intersects(query_box)) return;
  if (hi - lo == 1) {
    const std::size_t s = lo * kLeaf;
    const std::size_t e = std::min(c.items.size(), s + kLeaf);
    for (std::size_t i = s; i < e; ++i) {
      if (keep(c.items[i].p)) out.push_back(c.items[i].p);
    }
    return;
  }
  const std::size_t mid = (lo + hi) / 2;
  range_chunk(c, 2 * node, lo, mid, query_box, keep, out);
  range_chunk(c, 2 * node + 1, mid, hi, query_box, keep, out);
}

template <int D>
void zd_tree<D>::range_box(const aabb<D>& box,
                           std::vector<point<D>>& out) const {
  if (size_ == 0) return;
  range_rec(1, 0, num_top_leaves_, box,
            [&](const point<D>& p) { return box.contains(p); }, out);
}

template <int D>
void zd_tree<D>::range_ball(const point<D>& center, double radius,
                            std::vector<point<D>>& out) const {
  if (size_ == 0) return;
  // Prune segments by the ball's bounding box; the leaf test is exact.
  aabb<D> bb;
  point<D> r;
  for (int d = 0; d < D; ++d) r[d] = radius;
  bb.extend(center - r);
  bb.extend(center + r);
  const double r_sq = radius * radius;
  range_rec(1, 0, num_top_leaves_, bb,
            [&](const point<D>& p) { return p.dist_sq(center) <= r_sq; },
            out);
}

template <int D>
std::vector<point<D>> zd_tree<D>::gather() const {
  std::vector<std::size_t> offset(chunks_.size() + 1, 0);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    offset[i + 1] = offset[i] + chunks_[i]->items.size();
  }
  std::vector<point<D>> out(size_);
  par::parallel_for(
      0, chunks_.size(),
      [&](std::size_t i) {
        const auto& its = chunks_[i]->items;
        for (std::size_t j = 0; j < its.size(); ++j) {
          out[offset[i] + j] = its[j].p;
        }
      },
      8);
  return out;
}

template class zd_tree<2>;
template class zd_tree<3>;

}  // namespace pargeo::zdtree
