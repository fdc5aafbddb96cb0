// Reproduces the paper's §6.3 Zd-tree comparison (prose, 3D-U-10M):
// construction, 10% batch insertion/deletion, and full k-NN for the
// BDL-tree versus the Morton-ordered Zd-tree. The paper reports the
// Zd-tree much faster for updates and comparable for k-NN.
//
// The "insert/delete 1" and "64" rows time small batches on the same
// n-point tree: a batch-dynamic update should cost about the batch, not
// the set, and only small batches show that (a 10% batch touches most of
// the structure either way).
#include <memory>
#include <string>

#include "bdltree/bdl_tree.h"
#include "bench_common.h"
#include "datagen/datagen.h"
#include "zdtree/zdtree.h"

using namespace pargeo;
using namespace pargeo::bench;

namespace {

constexpr std::size_t kSmallBatches[] = {1, 64};

// "insert B" / "delete B" rows for each small batch size B, in µs; the
// median of more repeats than the 10% rows, since one op is microseconds.
template <class Built>
void time_small_batches(const char* name, const Built& built,
                        const std::vector<point<3>>& stored,
                        const std::vector<point<3>>& fresh) {
  constexpr int kReps = 15;
  for (const std::size_t b : kSmallBatches) {
    const std::vector<point<3>> add(fresh.begin(), fresh.begin() + b);
    const std::vector<point<3>> del(stored.begin(), stored.begin() + b);
    print_row_us(name, "insert " + std::to_string(b),
                 1e6 * time_fresh(built, [&](auto& t) { t->insert(add); },
                                  kReps));
    print_row_us(name, "delete " + std::to_string(b),
                 1e6 * time_fresh(built, [&](auto& t) { t->erase(del); },
                                  kReps));
  }
}

}  // namespace

int main() {
  const std::size_t n = base_n();
  auto pts = datagen::uniform<3>(n, 1);
  const std::size_t batch = n / 10;
  std::vector<point<3>> chunk(pts.begin(), pts.begin() + batch);
  // Small batches insert fresh points and delete stored ones.
  const auto fresh = datagen::uniform<3>(64, 2);

  print_header("Section 6.3: BDL-tree vs Zd-tree on 3D-U",
               "structure / operation / time");

  // Updates are timed on a fresh tree over `pts` each run (time_fresh).
  {
    const auto built = [&] {
      auto t = std::make_unique<bdltree::bdl_tree<3>>();
      t->insert(pts);
      return t;
    };
    print_row("BDL", "construct", 1e3 * time_op([&] { built(); }));
    print_row("BDL", "insert 10%",
              1e3 * time_fresh(built, [&](auto& t) { t->insert(chunk); }));
    print_row("BDL", "delete 10%",
              1e3 * time_fresh(built, [&](auto& t) { t->erase(chunk); }));
    time_small_batches("BDL", built, pts, fresh);
    const auto t = built();
    print_row("BDL", "k-NN (k=5)", 1e3 * time_op([&] { t->knn(pts, 5); }));
  }
  {
    const auto built = [&] {
      return std::make_unique<zdtree::zd_tree<3>>(pts);
    };
    print_row("Zd", "construct", 1e3 * time_op([&] { built(); }));
    print_row("Zd", "insert 10%",
              1e3 * time_fresh(built, [&](auto& t) { t->insert(chunk); }));
    print_row("Zd", "delete 10%",
              1e3 * time_fresh(built, [&](auto& t) { t->erase(chunk); }));
    time_small_batches("Zd", built, pts, fresh);
    const auto t = built();
    print_row("Zd", "k-NN (k=5)", 1e3 * time_op([&] { t->knn(pts, 5); }));
  }
  return 0;
}
