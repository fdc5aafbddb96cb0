// Ablation bench for the BDL-tree buffer size X (paper §5: "a constant
// that is tuned for performance"): sweeps X and reports insert and k-NN
// throughput.
#include <memory>

#include "bdltree/bdl_tree.h"
#include "bench_common.h"
#include "datagen/datagen.h"

using namespace pargeo;
using namespace pargeo::bench;
using namespace pargeo::bdltree;

int main() {
  const std::size_t n = base_n();
  auto pts = datagen::uniform<5>(n, 1);
  const std::size_t batch = std::max<std::size_t>(1, n / 10);
  print_header("Ablation: BDL buffer size X (5D-U)",
               "X / insert time / k-NN time");
  for (const std::size_t x : {256u, 1024u, 4096u, 16384u}) {
    const auto insert_all = [&](bdl_tree<5>& t) {
      for (std::size_t off = 0; off < n; off += batch) {
        std::vector<point<5>> chunk(
            pts.begin() + off, pts.begin() + std::min(n, off + batch));
        t.insert(chunk);
      }
    };
    // Each timed insert run fills a fresh tree; k-NN runs on one filled
    // the same way.
    const double ti = time_fresh(
        [&] {
          return std::make_unique<bdl_tree<5>>(split_policy::object_median, x);
        },
        [&](auto& t) { insert_all(*t); });
    bdl_tree<5> t(split_policy::object_median, x);
    insert_all(t);
    std::vector<point<5>> queries(pts.begin(),
                                  pts.begin() + std::min<std::size_t>(
                                                    n, 10000));
    const double tq = time_op([&] { t.knn(queries, 5); });
    std::printf("X=%-6zu insert=%8.1f ms  knn(10k)=%8.1f ms  trees=%zu\n",
                x, 1e3 * ti, 1e3 * tq, t.num_static_trees());
  }
  return 0;
}
