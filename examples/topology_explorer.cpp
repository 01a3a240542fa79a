// Topology explorer: how the node's interconnect shapes the value of the
// two heuristics.  Runs the same DGEMM workload on four node models
// (DGX-1, PCIe-only, NVSwitch, Summit-like) with the heuristics on and
// off, through the public API -- a compact version of paper_report's
// ext_topologies section that an application developer can adapt to their
// own machine model.
#include <cstdio>

#include "core/xkblas.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace xkblas;

namespace {

double run_gemm(const xkb::topo::Topology& topo,
                xkb::rt::HeuristicConfig heur) {
  Options opt;
  opt.topology = topo;
  opt.platform.functional = true;
  opt.tile = 64;
  opt.runtime.heuristics = heur;
  Context ctx(opt);

  const std::size_t n = 512;
  xkb::Rng rng(3);
  xkb::Matrix<double> A(n, n), B(n, n), C(n, n);
  xkb::fill_random(A, rng);
  xkb::fill_random(B, rng);
  xkb::fill_random(C, rng);

  ctx.gemm_async<double>(Op::NoTrans, Op::NoTrans, 1.0, A.view(), B.view(),
                         1.0, C.view());
  ctx.memory_coherent_async<double>(C.view());
  return ctx.sync();
}

}  // namespace

int main() {
  const xkb::topo::Topology nodes[] = {
      xkb::topo::Topology::dgx1(),
      xkb::topo::Topology::pcie_only(8),
      xkb::topo::Topology::nvswitch(8),
      xkb::topo::Topology::summit_like(),
  };

  xkb::Table t({"Topology", "GPUs", "heuristics on (ms)",
                "heuristics off (ms)", "gain"});
  for (const auto& topo : nodes) {
    const double on =
        run_gemm(topo, xkb::rt::HeuristicConfig::xkblas());
    const double off =
        run_gemm(topo, xkb::rt::HeuristicConfig::no_heuristic_no_topo());
    const double gain = 100.0 * (off / on - 1.0);
    t.add_row({topo.name(), std::to_string(topo.num_gpus()),
               xkb::Table::num(on * 1e3, 3), xkb::Table::num(off * 1e3, 3),
               (gain >= 0 ? "+" : "") + xkb::Table::num(gain, 1) + "%"});
  }
  std::printf("DGEMM 512 (tiles of 64), heuristics on vs off:\n%s",
              t.to_text().c_str());
  std::printf(
      "\nThe gain concentrates where device-to-device links are fast "
      "relative to the shared host links (DGX-1, NVSwitch); it fades on "
      "Summit-like nodes whose CPU-GPU NVLinks remove the host bottleneck "
      "(the paper's prediction), and can even reverse on PCIe-only nodes "
      "where peer forwarding competes with host traffic for the same "
      "fabric.\n");
  return 0;
}
