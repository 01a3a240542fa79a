// The workload -> runtime bridge: maps a WorkloadGraph onto rt::Runtime
// tasks and mem::Registry handles.
//
// Each tile is interned once, at a synthetic origin address in a dedicated
// window, so replicas, MSI coherence, lazy host coherency, LRU eviction,
// choose_source, optimistic waits, xkb::check invariants, xkb::obs capture
// and xkb::fault recovery all treat workload tiles exactly like BLAS matrix
// tiles -- the bridge adds no second data path.  Placement mirrors
// blas::EmitOptions: a `home` hint applied to the task's first written tile
// (only if that tile has no home yet) and an optional `force_place` that
// bypasses the scheduler, both keyed by the task's (place_i, place_j).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/runtime.hpp"
#include "workload/workload.hpp"

namespace xkb::wl {

struct BridgeOptions {
  /// Home-device hint for a task's output tile from its placement coords;
  /// only applied when the tile has no home yet (owner-computes mapping,
  /// exactly blas::EmitOptions::home).
  std::function<int(std::size_t i, std::size_t j)> home;
  /// Force the device of every task from its placement coords; empty = let
  /// the scheduler decide (static baselines, blas::EmitOptions::force_place).
  std::function<int(std::size_t i, std::size_t j)> force_place;
  /// After every task that writes a tile, flush the tile to the host and
  /// drop its device replicas (host-centric libraries like Slate; mirrors
  /// blas::EmitOptions::flush_outputs_each_task).
  bool flush_outputs = false;
  /// Base of the synthetic address window (disjoint from the SymbolicMatrix
  /// windows, so workloads compose with BLAS calls in one runtime).
  std::uint64_t base_address = 0x600000000000ull;
  /// Invoked once per bridge-submitted task on completion (compute tasks,
  /// dist staging, output flushes and coherence flushes alike), chained
  /// after any bookkeeping the bridge attaches itself.  With
  /// tasks_submitted() this lets a caller that multiplexes many graphs
  /// through one runtime (xkb::svc) detect when *this* graph is done.
  std::function<void()> task_done;
};

class Bridge {
 public:
  /// Each tile's synthetic origin owns one 16 MiB slot of the window.
  static constexpr std::uint64_t kTileSlot = 0x1000000ull;

  /// Interns one handle per graph tile, in tile-id order (so registry
  /// creation order is deterministic and matches the graph).
  Bridge(rt::Runtime& runtime, const WorkloadGraph& graph,
         BridgeOptions opt = {});

  mem::DataHandle* handle(std::uint32_t tile) const { return handles_[tile]; }

  /// Pre-place every external input tile on the device its first consumer
  /// is mapped to, via a forced "dist" read task (the data-on-device
  /// scenario; mirrors baselines' distribute_matrix).
  void distribute();

  /// Submit every task in graph order; dependencies are derived by the
  /// runtime from the access modes.
  void emit();

  /// Queue dataflow-ordered host flushes of the graph's coherent tiles
  /// (xkblas_memory_coherent_async semantics).
  void coherent();

  /// Tasks this bridge has submitted so far (every emit/distribute/flush/
  /// coherent submission).  Together with BridgeOptions::task_done this is
  /// the graph's completion ledger: the graph is done when the done
  /// callback has fired tasks_submitted() times.
  std::size_t tasks_submitted() const { return submitted_; }

 private:
  int place_of(const TaskSpec& t) const;
  void submit(rt::TaskDesc d);

  rt::Runtime& rt_;
  const WorkloadGraph& g_;
  BridgeOptions opt_;
  std::vector<mem::DataHandle*> handles_;
  std::size_t submitted_ = 0;
};

}  // namespace xkb::wl
