// Data-flow tasks: the XKaapi dependent-task model.
//
// A task declares accesses to data handles with a mode (R / W / RW); the
// runtime derives dependencies from the program order of accesses (readers
// after the last writer, writers after all previous readers and the writer),
// which is exactly the asynchronous semantics that lets XKBlas compose BLAS
// calls without global synchronisation (paper Section IV-F).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/handle.hpp"
#include "trace/facts.hpp"
#include "util/slab.hpp"

namespace xkb::rt {

using Access = trace::Access;

struct TaskAccess {
  mem::DataHandle* handle = nullptr;
  Access mode = Access::kR;
};

/// View the functional payload gets: one dense device buffer per access.
class FunctionalCtx {
 public:
  FunctionalCtx(const std::vector<TaskAccess>* acc, int device)
      : acc_(acc), device_(device) {}

  /// Raw pointer to the dense (ld == m) device replica of access `i`.
  void* ptr(std::size_t i) const {
    mem::DataHandle* h = (*acc_)[i].handle;
    return h->dev_buf[device_].data();
  }
  mem::DataHandle* handle(std::size_t i) const { return (*acc_)[i].handle; }
  int device() const { return device_; }

 private:
  const std::vector<TaskAccess>* acc_;
  int device_;
};

/// User-facing task description, submitted to Runtime::submit.
struct TaskDesc {
  std::string label;
  std::vector<TaskAccess> accesses;
  double flops = 0.0;          ///< real-arithmetic flop count (cost model)
  std::size_t min_dim = 0;     ///< limiting tile dimension (efficiency curve)
  double eff_factor = 1.0;     ///< kernel-specific efficiency multiplier
  bool single_precision = false;
  int forced_device = -1;      ///< >=0 bypasses the scheduler
  std::function<void(const FunctionalCtx&)> fn;  ///< functional payload

  /// Host-side task (memory_coherent, layout conversions): flushes its R
  /// accesses to the host, then occupies the host worker for host_seconds.
  bool host_task = false;
  double host_seconds = 0.0;

  /// Invoked when the task completes (bookkeeping hooks, e.g. dropping
  /// device replicas after a host round trip).
  std::function<void()> on_complete;
};

/// Internal task record with scheduling state.  The Runtime keeps its
/// records in a slab (util::Slab): fixed-size blocks, one record per task
/// in id order, never moved or freed before the Runtime dies, so engine
/// callbacks can hold a `Task*`.  The lists below are threaded through the
/// Runtime's link pools.
struct Task {
  explicit Task(TaskDesc d) : desc(std::move(d)) {}

  TaskDesc desc;
  std::uint64_t id = 0;

  // Dependency state.
  int pending_deps = 0;
  /// Tasks waiting on this one, in the order their edges were added.
  util::LinkList<Task*> successors;

  // Execution state.
  int device = -1;
  int operands_missing = 0;
  bool prepared = false;   ///< operand acquisition started (no longer stealable)
  bool done = false;

  /// Bumped when a device failure migrates the task mid-preparation or
  /// mid-kernel: operand-acquisition and kernel-completion callbacks
  /// capture the epoch they were issued under and no-op on mismatch, so a
  /// cancelled execution cannot complete the re-executed task.
  std::uint32_t epoch = 0;

  /// Version of each operand at completion time, in access order (filled
  /// by the runtime when the task finishes).  A producer replay is only
  /// sound while its inputs are still at the versions it originally
  /// consumed.
  util::LinkList<std::uint64_t> access_versions;
};

}  // namespace xkb::rt
