// Execution tracing, the simulator's equivalent of the paper's nvprof
// methodology (Section IV-E): every GPU operation -- memcpy HtoD / DtoH /
// PtoP and kernel execution -- is recorded with its device, virtual-time
// interval and payload, then aggregated into the cumulative and normalized
// breakdowns of Figs. 6-7 and the Gantt charts of Fig. 9.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "trace/facts.hpp"

namespace xkb::trace {

const char* to_string(OpKind k);
/// Inverse of to_string; returns false when `s` names no OpKind.
bool parse_kind(const std::string& s, OpKind& out);

struct Record {
  int device = 0;  ///< device executing/receiving the operation
  OpKind kind = OpKind::kKernel;
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  std::size_t bytes = 0;  ///< transfers only
  double flops = 0.0;     ///< kernels only
  int lane = 0;           ///< stream index within the device
  std::string label;      ///< kernel name / transfer peer
  int peer = -1;          ///< PtoP only: source device (link identity)
  /// Queueing delay: seconds the op waited behind earlier work on its
  /// resource (interval start - submission time).  Feeds the per-link
  /// contention statistics of xkb::obs and tools/trace_report.
  sim::Time queued = 0.0;
};

/// Per-class time totals ("cumulative execution time" of Fig. 6).
struct Breakdown {
  double htod = 0.0, dtoh = 0.0, ptop = 0.0, kernel = 0.0;
  double total() const { return htod + dtoh + ptop + kernel; }
  double transfers() const { return htod + dtoh + ptop; }
};

class Trace {
 public:
  void add(Record r);
  void clear();
  bool enabled() const { return enabled_; }
  void set_enabled(bool e) { enabled_ = e; }

  const std::vector<Record>& records() const { return records_; }

  /// Sum of operation durations by class; device == -1 sums over all GPUs.
  Breakdown breakdown(int device = -1) const;

  /// Latest end time over all records (the makespan of the traced region).
  sim::Time span() const;

  /// Earliest start time over all records.  Non-zero when the trace was
  /// cleared mid-run (e.g. after a data-on-device distribution phase) --
  /// the traced window is [t0(), span()].
  sim::Time t0() const;

  /// Bytes moved per transfer class.
  std::size_t bytes(OpKind kind) const;

  int max_device() const { return max_device_; }

 private:
  bool enabled_ = true;
  std::vector<Record> records_;
  int max_device_ = -1;
};

}  // namespace xkb::trace
