// Zd-tree stand-in for the paper's §6.3 comparison (Blelloch & Dobson's
// Morton-order batch-dynamic tree; see DESIGN.md substitutions).
//
// Points are kept in Morton order, cut into immutable chunks of C to 2C
// items (the last may be smaller while it is the only one). Each chunk
// carries its own heap of 16-item segment bounding boxes, and a small
// top-level box heap sits over the chunks. A write batch is sorted once
// and routed to chunks by galloping search on their first keys; only the
// touched chunks are rebuilt (split when they outgrow 2C, merged into a
// neighbour when they fall under C/2), then the chunk pointer vector and
// the top heap are rebuilt. A batch of B points therefore costs
// O(B log n + touched chunks * C + n/C) rather than a pass over all n
// points. Chunks are shared between tree versions, so copying a tree
// copies only its pointer vector: a copy-on-write owner keeps the old
// version readable while the new one shares every chunk the write did not
// touch. k-NN, box and ball queries descend the top heap and then each
// chunk's segment heap, pruning by box distance. Supports 2D and 3D like
// the original.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/aabb.h"
#include "core/point.h"
#include "kdtree/knn_buffer.h"

namespace pargeo::zdtree {

template <int D>
class zd_tree {
 public:
  explicit zd_tree(const std::vector<point<D>>& pts = {});

  std::size_t size() const { return size_; }

  void insert(const std::vector<point<D>>& batch);
  void erase(const std::vector<point<D>>& batch);

  /// Row i: the k nearest stored points to queries[i], sorted by distance.
  std::vector<std::vector<point<D>>> knn(const std::vector<point<D>>& queries,
                                         std::size_t k) const;

  /// Appends all stored points inside `box` to `out` (unordered).
  void range_box(const aabb<D>& box, std::vector<point<D>>& out) const;

  /// Appends all stored points within `radius` of `center` to `out`.
  void range_ball(const point<D>& center, double radius,
                  std::vector<point<D>>& out) const;

  std::vector<point<D>> gather() const;

 private:
  struct item {
    uint64_t code;
    point<D> p;
    bool operator<(const item& o) const {
      return code < o.code || (code == o.code && p < o.p);
    }
    bool operator==(const item& o) const {
      return code == o.code && p == o.p;
    }
  };

  /// An immutable Morton-sorted run of items with its segment-box heap.
  struct chunk {
    item first;                   // items.front(), kept inline for routing
    std::vector<item> items;
    std::vector<aabb<D>> boxes;   // heap-ordered; boxes[1] bounds the chunk
    std::size_t num_leaf_segments = 0;
  };
  using chunk_ptr = std::shared_ptr<const chunk>;

  /// One touched chunk of a write: chunk `ci` takes ops[lo, hi).
  struct touch {
    std::size_t ci, lo, hi;
  };

  static chunk_ptr make_chunk(std::vector<item> items);
  /// Appends `run` to `out` cut into pieces of C to 2C items (one piece if
  /// it has at most 2C).
  static void cut(std::vector<item>&& run,
                  std::vector<std::vector<item>>& out);
  /// The items of touched chunk `ci` for the write to rebuild: moved out
  /// when this tree holds the only reference to the chunk (a tree no copy
  /// shares updates in place), copied otherwise.
  std::vector<item> take_items(std::size_t ci);
  item make_item(const point<D>& p) const;
  std::vector<item> sorted_items(const std::vector<point<D>>& pts) const;
  /// Replaces the contents with one sorted run.
  void assign(std::vector<item> sorted);
  /// Replaces touches[t].ci's items with updated[t] for every t.
  void splice(const std::vector<touch>& touches,
              std::vector<std::vector<item>> updated);
  /// Builds the null slots of `next` from `fresh` (in order), installs
  /// `next` and rebuilds the top heap.
  void install(std::vector<chunk_ptr> next,
               std::vector<std::vector<item>> fresh);

  void knn_rec(std::size_t node, std::size_t lo, std::size_t hi,
               const point<D>& q, kdtree::knn_buffer& buf) const;
  void knn_chunk(const chunk& c, std::size_t id_base, std::size_t node,
                 std::size_t lo, std::size_t hi, const point<D>& q,
                 kdtree::knn_buffer& buf) const;
  template <class Keep>
  void range_rec(std::size_t node, std::size_t lo, std::size_t hi,
                 const aabb<D>& query_box, const Keep& keep,
                 std::vector<point<D>>& out) const;
  template <class Keep>
  void range_chunk(const chunk& c, std::size_t node, std::size_t lo,
                   std::size_t hi, const aabb<D>& query_box, const Keep& keep,
                   std::vector<point<D>>& out) const;

  static constexpr std::size_t kLeaf = 16;
  // Chunk size C: chunks hold C to 2C items. A single-point write rebuilds
  // one chunk (O(C)) and the pointer vector and top heap (O(n/C)). On one
  // pinned CPU, copy + one-point write on a 2D tree took about 2-3 µs at
  // 12.5k points (a write_mix shard) and 16-18 µs at 250k (a read_large
  // shard) with C = 256, against 4-5 µs and 13-15 µs with C = 512; k-NN
  // differed by less than its run-to-run noise. The write-heavy shard
  // size decides.
  static constexpr std::size_t kChunk = 256;

  std::vector<chunk_ptr> chunks_;  // Morton order, each non-empty
  // Heap-ordered chunk boxes (leaf i = chunks_[i]'s root box), rebuilt per
  // write; shared so that copying a tree does not copy it.
  std::shared_ptr<const std::vector<aabb<D>>> top_;
  std::size_t num_top_leaves_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pargeo::zdtree
