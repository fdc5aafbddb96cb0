// Reproduces paper Figure 11: throughput (operations per second) versus
// thread count on 7D uniform data for B1 / B2 / BDL with object and
// spatial median splits:
//   (a) construction        (b) batch insertion (10 batches of 10%)
//   (c) batch deletion      (d) full k-NN, k = 5
//
// On a single-core host the sweep is {1}; the cross-implementation shape
// (BDL construction fastest, B2 updates fastest, B1/B2 k-NN fastest) is
// still measured.
#include <memory>

#include "bdltree/baselines.h"
#include "bdltree/bdl_tree.h"
#include "bench_common.h"
#include "datagen/datagen.h"

using namespace pargeo;
using namespace pargeo::bench;
using namespace pargeo::bdltree;

namespace {

constexpr int D = 7;

template <class Tree>
double construction_throughput(const std::vector<point<D>>& pts,
                               split_policy pol) {
  const double s = time_op([&] {
    Tree t(pol);
    t.insert(pts);
  });
  return static_cast<double>(pts.size()) / s;
}

template <class Tree>
double insert_throughput(const std::vector<point<D>>& pts,
                         split_policy pol) {
  const std::size_t batch = pts.size() / 10;
  const double s = time_op([&] {
    Tree t(pol);
    for (std::size_t b = 0; b < 10; ++b) {
      std::vector<point<D>> chunk(
          pts.begin() + b * batch,
          pts.begin() + std::min(pts.size(), (b + 1) * batch));
      t.insert(chunk);
    }
  });
  return static_cast<double>(pts.size()) / s;
}

template <class Tree>
double delete_throughput(const std::vector<point<D>>& pts,
                         split_policy pol) {
  const std::size_t batch = pts.size() / 10;
  const double s = time_fresh(
      [&] {  // every timed run deletes from a fresh full tree
        auto t = std::make_unique<Tree>(pol);
        t->insert(pts);
        return t;
      },
      [&](auto& t) {
        for (std::size_t b = 0; b < 10; ++b) {
          std::vector<point<D>> chunk(
              pts.begin() + b * batch,
              pts.begin() + std::min(pts.size(), (b + 1) * batch));
          t->erase(chunk);
        }
      });
  return static_cast<double>(pts.size()) / s;
}

template <class Tree>
double knn_throughput(const std::vector<point<D>>& pts, split_policy pol) {
  Tree t(pol);
  t.insert(pts);  // single batch: balanced trees for B1/B2
  const double s = time_op([&] { t.knn(pts, 5); });
  return static_cast<double>(pts.size()) / s;
}

template <class Tree>
void sweep(const char* impl, const std::vector<point<D>>& pts,
           double (*op)(const std::vector<point<D>>&, split_policy)) {
  for (const auto [pol, polName] :
       {std::pair{split_policy::object_median, "object"},
        std::pair{split_policy::spatial_median, "spatial"}}) {
    for (const int threads : thread_sweep()) {
      scoped_threads st(threads);
      print_throughput_row(std::string(impl) + "-" + polName, threads,
                           op(pts, pol));
    }
  }
}

}  // namespace

int main() {
  const std::size_t n = base_n();
  auto pts = datagen::uniform<D>(n, 1);
  std::printf("Figure 11 reproduction (7D-U-%zu; paper used 10M)\n", n);

  print_header("(a) Construction scalability", "impl / threads / ops/s");
  sweep<b1_tree<D>>("B1", pts, construction_throughput<b1_tree<D>>);
  sweep<b2_tree<D>>("B2", pts, construction_throughput<b2_tree<D>>);
  sweep<bdl_tree<D>>("BDL", pts, construction_throughput<bdl_tree<D>>);

  print_header("(b) Insert scalability (10 batches of 10%)",
               "impl / threads / ops/s");
  sweep<b1_tree<D>>("B1", pts, insert_throughput<b1_tree<D>>);
  sweep<b2_tree<D>>("B2", pts, insert_throughput<b2_tree<D>>);
  sweep<bdl_tree<D>>("BDL", pts, insert_throughput<bdl_tree<D>>);

  print_header("(c) Delete scalability (10 batches of 10%)",
               "impl / threads / ops/s");
  sweep<b1_tree<D>>("B1", pts, delete_throughput<b1_tree<D>>);
  sweep<b2_tree<D>>("B2", pts, delete_throughput<b2_tree<D>>);
  sweep<bdl_tree<D>>("BDL", pts, delete_throughput<bdl_tree<D>>);

  print_header("(d) Data-parallel k-NN (k=5) scalability",
               "impl / threads / ops/s");
  sweep<b1_tree<D>>("B1", pts, knn_throughput<b1_tree<D>>);
  sweep<b2_tree<D>>("B2", pts, knn_throughput<b2_tree<D>>);
  sweep<bdl_tree<D>>("BDL", pts, knn_throughput<bdl_tree<D>>);
  return 0;
}
