#include "baselines/workload_entry.hpp"

#include <utility>

#include "baselines/common.hpp"
#include "workload/bridge.hpp"

namespace xkb::baselines {

BenchResult run_workload(const ModelSpec& spec, const wl::WorkloadGraph& graph,
                         const RunConfig& cfg) {
  graph.validate();
  obs::LedgerMeta id;
  id.routine = graph.name;
  return run_plan(spec, cfg, std::move(id), [&](rt::Runtime& runtime) {
    // Placement: grid-placement graphs (the composition capture) map
    // through the same (P, Q) block-cyclic grid as the BLAS emitters;
    // layered graphs spread layer points round-robin so neighbouring points
    // land on neighbouring devices and stencil halos cross real links.
    std::function<int(std::size_t, std::size_t)> place;
    if (graph.grid_placement)
      place = blas::block_cyclic(blas::default_grid(runtime.num_gpus()));
    else
      place = [ngpus = runtime.num_gpus()](std::size_t i, std::size_t) {
        return static_cast<int>(i % static_cast<std::size_t>(ngpus));
      };
    wl::BridgeOptions bopt;
    bopt.flush_outputs = spec.flush_outputs_each_task;
    if (spec.static_block_cyclic)
      bopt.force_place = std::move(place);
    else
      bopt.home = std::move(place);
    auto bridge =
        std::make_shared<wl::Bridge>(runtime, graph, std::move(bopt));
    RoutinePlan plan;
    plan.emit = [bridge] { bridge->emit(); };
    plan.distribute = [bridge] { bridge->distribute(); };
    plan.coherent = [bridge] { bridge->coherent(); };
    plan.flops = graph.total_flops();
    return plan;
  });
}

}  // namespace xkb::baselines
