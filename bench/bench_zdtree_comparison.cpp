// Reproduces the paper's §6.3 Zd-tree comparison (prose, 3D-U-10M):
// construction, 10% batch insertion/deletion, and full k-NN for the
// BDL-tree versus the Morton-ordered Zd-tree. The paper reports the
// Zd-tree much faster for updates and comparable for k-NN.
#include <memory>

#include "bdltree/bdl_tree.h"
#include "bench_common.h"
#include "datagen/datagen.h"
#include "zdtree/zdtree.h"

using namespace pargeo;
using namespace pargeo::bench;

int main() {
  const std::size_t n = base_n();
  auto pts = datagen::uniform<3>(n, 1);
  const std::size_t batch = n / 10;
  std::vector<point<3>> chunk(pts.begin(), pts.begin() + batch);

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
    const auto t = built();
    print_row("Zd", "k-NN (k=5)", 1e3 * time_op([&] { t->knn(pts, 5); }));
  }
  return 0;
}
