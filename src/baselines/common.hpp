// Shared machinery for the library models: symbolic matrices (paper-scale
// views that are never dereferenced in timing mode), run plans, and the one
// run skeleton every BLAS routine, composition and workload goes through.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <memory>

#include "baselines/library_model.hpp"
#include "blas/tiled.hpp"
#include "runtime/runtime.hpp"

namespace xkb::baselines {

/// A matrix that exists only as an address range: timing-mode runs identify
/// tiles by origin address, so paper-scale operands (tens of GB) need no
/// real storage.  Each instance gets a disjoint address window.
template <typename T>
class SymbolicMatrix {
 public:
  SymbolicMatrix(std::size_t m, std::size_t n, int slot)
      : m_(m),
        n_(n),
        base_(reinterpret_cast<T*>(0x100000000000ull +
                                   static_cast<std::uint64_t>(slot) *
                                       0x040000000000ull)) {}

  MatrixView<T> view() { return {base_, m_, n_, m_}; }
  MatrixView<const T> cview() const { return {base_, m_, n_, m_}; }

 private:
  std::size_t m_, n_;
  T* base_;
};

/// Type-erased run: how to emit the task graph, pre-place the operands
/// (data-on-device), and bring results home (data-on-host).  Only the plan
/// differs between a BLAS routine, the Fig. 8 composition and a workload.
struct RoutinePlan {
  std::function<void()> emit;
  std::function<void()> distribute;
  std::function<void()> coherent;
  double flops = 0.0;
  double input_bytes = 0.0;   ///< operand footprint (layout conversions)
  double output_bytes = 0.0;
  int calls = 1;              ///< library calls, each paying call_overhead
};

/// Emission options carrying `spec`'s placement (owner-computes homes or
/// forced static placement on the default block-cyclic grid) and flush
/// policy.
blas::EmitOptions emit_options(const ModelSpec& spec, std::size_t tile,
                               int num_gpus);

/// Build the plan for one paper benchmark (square FP64; complex FP64 for
/// HEMM/HERK/HER2K); data-on-device staging uses the default block-cyclic
/// grid.
RoutinePlan plan_routine(rt::Runtime& runtime, Blas3 routine, std::size_t n,
                         const blas::EmitOptions& emit);

/// Builds a run's plan against the runtime the skeleton configured.
using PlanBuilder = std::function<RoutinePlan(rt::Runtime&)>;

/// The run skeleton: a Session from `spec` and `cfg`, the plan submitted
/// under cfg's scenario and timed, results captured (Session::capture, or
/// Session::fail with the flight dump).  `id` names the run in ledgers and
/// flight dumps; its lib, scenario and seed are filled in here.
BenchResult run_plan(const ModelSpec& spec, const RunConfig& cfg,
                     obs::LedgerMeta id, const PlanBuilder& build);

/// Fig. 8: B := A^-1 B (TRSM) then C := B D + C (GEMM) on n x n operands
/// under `spec`.  `sync_between_calls` drains the device between the two
/// calls, results coherent on the host, as libraries with synchronous
/// inter-call semantics do (Chameleon); XKBlas composes both calls in one
/// graph.  Data on host only: cfg.data_on_device throws
/// std::invalid_argument.
BenchResult run_composition(const ModelSpec& spec, std::size_t n,
                            std::size_t tile, bool sync_between_calls,
                            const RunConfig& cfg = {});

}  // namespace xkb::baselines
