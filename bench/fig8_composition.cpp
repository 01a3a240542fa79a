// Figure 8: composition of TRSM + GEMM FP64 (block size 2048) over 8 GPUs,
// sweeping the matrix dimension: XKBlas composes the two calls into one
// task graph; Chameleon synchronises between the calls.
#include <cstdio>

#include "bench_common.hpp"

using namespace xkb;
using namespace xkb::baselines;

int main() {
  std::printf(
      "== Fig. 8: composition TRSM + GEMM FP64, block size 2048, 8 GPUs "
      "==\n\n");

  const ModelSpec xkblas = spec_for_library("xkblas");
  const ModelSpec cham = spec_for_library("chameleon-tile");

  Table t({"N", "Chameleon Tiled", "XKBlas", "XKBlas/Chameleon"});
  for (std::size_t n : bench::paper_sizes()) {
    const BenchResult rc =
        run_composition(cham, n, 2048, /*sync_between_calls=*/true);
    const BenchResult rx =
        run_composition(xkblas, n, 2048, /*sync_between_calls=*/false);
    t.add_row({std::to_string(n), Table::num(rc.tflops, 2),
               Table::num(rx.tflops, 2),
               Table::num(rx.tflops / rc.tflops, 2) + "x"});
  }
  std::printf("%s (TFlop/s)\n", t.to_text().c_str());
  std::printf(
      "Paper reference at N=32768: XKBlas 56.6 TFlop/s (near its GEMM peak "
      "of 56.9) vs Chameleon 36.6 (below its 51.3 GEMM peak).\n");
  return 0;
}
