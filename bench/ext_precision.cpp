// Extension: single precision (SGEMM).  The V100's FP32 peak is twice its
// FP64 peak (Table I footnote territory in the paper); with the flop rate
// doubled, the PCIe links -- moving half the bytes per element -- remain
// the limiter, so the heuristics matter even more than in FP64.
#include <cstdio>

#include "baselines/common.hpp"
#include "util/table.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

double run_sgemm(rt::HeuristicConfig heur, std::size_t n, std::size_t tile) {
  rt::Platform plat(topo::Topology::dgx1(), rt::PerfModel{}, {});
  rt::RuntimeOptions ropt;
  ropt.heuristics = heur;
  ropt.task_overhead = 3e-6;
  ropt.prepare_window = 16;
  rt::Runtime runtime(plat,
                      std::make_unique<rt::OwnerComputesScheduler>(), ropt);
  SymbolicMatrix<float> A(n, n, 0), B(n, n, 1), C(n, n, 2);
  blas::EmitOptions emit;
  emit.tile = tile;
  emit.attach_functional = false;
  emit.home = blas::block_cyclic(blas::default_grid(plat.num_gpus()));
  blas::tiled_gemm<float>(runtime, Op::NoTrans, Op::NoTrans, 1.0f, A.cview(),
                          B.cview(), 1.0f, C.view(), emit);
  MatrixView<const float> Cc = C.cview();
  for (std::size_t i = 0; i < n; i += tile)
    for (std::size_t j = 0; j < n; j += tile)
      runtime.coherent_async(blas::detail::tile_handle(
          runtime, Cc, i, j, std::min(tile, n - i), std::min(tile, n - j)));
  const double t = runtime.run();
  return 2.0 * double(n) * n * n / t / 1e12;
}

}  // namespace

int main() {
  std::printf("== Extension: FP32 SGEMM (peak 124.8 TFlop/s aggregate) ==\n\n");
  Table t({"N", "SGEMM XKBlas", "SGEMM no heuristics", "heuristic gain"});
  for (std::size_t n : {16384ul, 32768ul, 49152ul}) {
    const double on = run_sgemm(rt::HeuristicConfig::xkblas(), n, 2048);
    const double off =
        run_sgemm(rt::HeuristicConfig::no_heuristic_no_topo(), n, 2048);
    t.add_row({std::to_string(n), Table::num(on, 2), Table::num(off, 2),
               "+" + Table::num(100.0 * (on / off - 1.0), 1) + "%"});
  }
  std::printf("%s\n", t.to_text().c_str());
  std::printf(
      "FP32 doubles the compute rate while transfers shrink only 2x in "
      "bytes: the communication share grows, and with it the value of the "
      "device-to-device heuristics.\n");
  return 0;
}
