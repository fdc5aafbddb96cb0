// Reproduces paper Figure 12 / Appendix B: overhead of the reservation
// technique versus the sequential (no-reservation) quickhull, on one
// thread, for 3D-IS and 3D-IC data:
//   (a) number of conflict points touched
//   (b) number of visible facets touched
//   (c) single-thread running time
#include "bench_common.h"
#include "datagen/datagen.h"
#include "hull/hull3d.h"

using namespace pargeo;
using namespace pargeo::bench;

namespace {

void run_dataset(const std::string& name, const std::vector<point<3>>& pts) {
  scoped_threads st(1);  // the paper measures work, not parallel time
  hull3d::stats noRes, res;
  const double tNoRes =
      time_op([&] {
        noRes = {};  // the counters accumulate; keep one run's
        hull3d::sequential_quickhull(pts, &noRes);
      });
  const double tRes =
      time_op([&] {
        res = {};
        hull3d::reservation_quickhull(pts, 8, &res);
      });
  std::printf("%-14s %-16s points=%10zu facets=%10zu time=%8.1f ms\n",
              name.c_str(), "no-reservation", noRes.points_touched,
              noRes.facets_touched, 1e3 * tNoRes);
  std::printf("%-14s %-16s points=%10zu facets=%10zu time=%8.1f ms\n",
              name.c_str(), "reservation", res.points_touched,
              res.facets_touched, 1e3 * tRes);
}

}  // namespace

int main() {
  const std::size_t n = base_n();
  print_header("Figure 12: reservation overhead (single thread)",
               "dataset / method / touched counts / time");
  run_dataset("3D-IS-" + std::to_string(n), datagen::in_sphere<3>(n, 1));
  run_dataset("3D-IC-" + std::to_string(n), datagen::in_cube<3>(n, 2));
  return 0;
}
