// Figure 9: Gantt chart of the TRSM + GEMM composition (N = 32768, block
// size 2048) on the 8 GPUs.  Chameleon shows a synchronisation gap between
// the two routine calls; XKBlas composes them without a barrier.
#include <cstdio>

#include "baselines/common.hpp"
#include "trace/gantt.hpp"

using namespace xkb;
using namespace xkb::baselines;

int main() {
  std::printf(
      "== Fig. 9: Gantt chart of TRSM + GEMM composition (N=32768, block "
      "2048) ==\n\n");

  RunConfig cfg;
  cfg.obs.enabled = true;  // keeps the run's trace for the chart
  const auto gantt = [](const BenchResult& r) {
    return trace::gantt_ascii(*r.trace, static_cast<int>(r.per_gpu.size()),
                              110);
  };

  const BenchResult rc =
      run_composition(spec_for_library("chameleon-tile"), 32768, 2048,
                      /*sync_between_calls=*/true, cfg);
  std::printf("Chameleon Tile (%.2f TFlop/s) -- note the synchronisation "
              "gap between TRSM and GEMM:\n%s\n",
              rc.tflops, gantt(rc).c_str());

  const BenchResult rx =
      run_composition(spec_for_library("xkblas"), 32768, 2048,
                      /*sync_between_calls=*/false, cfg);
  std::printf("XKBlas (%.2f TFlop/s) -- composed, no barrier:\n%s\n",
              rx.tflops, gantt(rx).c_str());
  return 0;
}
