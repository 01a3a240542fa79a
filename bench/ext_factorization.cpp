// Extension: tiled Cholesky (POTRF) at paper scale -- the solver workload
// class (MUMPS and friends) that motivates XKBlas's composition design.
// POTRF is a long chain of TRSM/SYRK/GEMM graphs with a low-parallelism
// critical path, so it stresses exactly what the heuristics improve: the
// latency of moving panel results between GPUs.
#include <cstdio>

#include "baselines/common.hpp"
#include "blas/tiled_factor.hpp"
#include "util/table.hpp"

using namespace xkb;
using namespace xkb::baselines;

namespace {

double run_potrf(const ModelSpec& spec, std::size_t n, std::size_t tile) {
  const auto build = [&](rt::Runtime& runtime) {
    auto A = std::make_shared<SymbolicMatrix<double>>(n, n, 0);
    const blas::EmitOptions emit =
        emit_options(spec, tile, runtime.num_gpus());
    RoutinePlan plan;
    plan.emit = [&runtime, A, emit] {
      MatrixView<double> Av = A->view();
      blas::tiled_potrf<double>(runtime, Uplo::Lower, Av, emit);
    };
    // Results stay on device for the (hypothetical) solve that follows;
    // bring back the factor like a standalone library call would.
    plan.coherent = [&runtime, A, n, tile] {
      MatrixView<const double> Ac = A->cview();
      for (std::size_t i = 0; i < n; i += tile)
        for (std::size_t j = 0; j <= i; j += tile)
          runtime.coherent_async(blas::detail::tile_handle(
              runtime, Ac, i, j, std::min(tile, n - i),
              std::min(tile, n - j)));
    };
    plan.flops = static_cast<double>(n) * n * n / 3.0;
    return plan;
  };
  obs::LedgerMeta id;
  id.routine = "POTRF";
  id.n = n;
  id.tile = tile;
  return run_plan(spec, {}, std::move(id), build).tflops;
}

}  // namespace

int main() {
  std::printf(
      "== Extension: tiled Cholesky (DPOTRF) on the simulated DGX-1 ==\n\n");

  const ModelSpec xkblas = spec_for_library("xkblas");
  const ModelSpec blind =
      spec_for_library("xkblas", rt::HeuristicConfig::no_heuristic_no_topo());
  const ModelSpec cham = spec_for_library("chameleon-tile");

  Table t({"N", "XKBlas", "XKBlas no heuristics", "dmdas model"});
  for (std::size_t n : {8192ul, 16384ul, 24576ul, 32768ul, 49152ul}) {
    const std::size_t tile = n >= 32768 ? 2048 : 1024;
    t.add_row({std::to_string(n), Table::num(run_potrf(xkblas, n, tile), 2),
               Table::num(run_potrf(blind, n, tile), 2),
               Table::num(run_potrf(cham, n, tile), 2)});
  }
  std::printf("DPOTRF (TFlop/s, lower, data-on-host, factor returned)\n%s\n",
              t.to_text().c_str());
  std::printf(
      "The factorization's critical path (panel -> solves -> update) makes "
      "it overhead- and latency-sensitive rather than bandwidth-bound: the "
      "data-movement heuristics change little here, while the lightweight "
      "runtime (3 us/task vs the dmdas model's 20 us + 80 ms setup) "
      "dominates at small and medium sizes -- the property that makes "
      "XKBlas attractive to sparse solvers like MUMPS (paper Section V).\n");
  return 0;
}
