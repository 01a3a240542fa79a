// The generic-DAG entry point: run any xkb::wl workload graph under a
// library model's policy spec through the same run skeleton, scenarios and
// result capture as the BLAS benchmarks -- so a stencil sweep and a GEMM
// sweep are directly comparable rows.
#pragma once

#include "baselines/library_model.hpp"
#include "workload/workload.hpp"

namespace xkb::baselines {

/// Run `graph` under `spec`: the graph bridged through wl::Bridge as the
/// skeleton's plan, results captured into the same BenchResult
/// (transfers, check verdict, obs layer, fault counters).
BenchResult run_workload(const ModelSpec& spec, const wl::WorkloadGraph& graph,
                         const RunConfig& cfg);

}  // namespace xkb::baselines
