// Crash flight recorder: a bounded ring of the last N observable events,
// source decisions, and fault-lane triggers, dumped together with a
// ledger snapshot when a run dies -- watchdog stall, checker violation,
// or an exception unwinding out of Engine::run.  A `check_matrix chaos`
// failure then reads as a last-seconds timeline ("brownout hit p2p1-0, three
// transfers queued behind it, gpu1's fetch picked wait-device, nothing
// progressed since t=...") instead of a bare hash mismatch or a
// StuckProgress one-liner.
//
// The ring records through the same Observability hooks the metrics
// already use, so it costs one bounded-copy per observed event and
// nothing on the simulation's virtual-time lane; recording is always on
// while an Observability instance is attached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace xkb::obs {

struct FlightEntry {
  enum class Kind : std::uint8_t {
    kKernel,    ///< kernel completion (a = device)
    kTransfer,  ///< h2d/d2d/d2h completion (a = src or -1 host, b = dst)
    kWait,      ///< wait-for-inflight decision applied (a = src, b = dst)
    kDecision,  ///< choose_source pick (a = picked_dev, b = dst)
    kFault,     ///< fault-plan trigger or recovery action
  };
  static constexpr std::size_t kTagLen = 48;

  sim::Time t = 0.0;
  Kind kind = Kind::kKernel;
  int a = -1, b = -1;
  std::uint64_t handle = 0;
  std::size_t bytes = 0;
  char tag[kTagLen] = {};  ///< label / pick / fault kind, truncated
};

const char* to_string(FlightEntry::Kind k);

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : cap_(capacity ? capacity : 1) {
    ring_.resize(cap_);
  }

  /// Push one entry, overwriting the oldest once the ring is full.
  void record(const FlightEntry& e) {
    ring_[static_cast<std::size_t>(total_ % cap_)] = e;
    ++total_;
  }

  /// Convenience: build the entry in place (tag truncated to kTagLen-1).
  void note(sim::Time t, FlightEntry::Kind kind, int a, int b,
            std::uint64_t handle, std::size_t bytes, const char* tag);

  std::uint64_t total() const { return total_; }
  std::size_t capacity() const { return cap_; }
  std::size_t size() const {
    return total_ < cap_ ? static_cast<std::size_t>(total_) : cap_;
  }

  /// Retained entries, oldest first.
  std::vector<FlightEntry> timeline() const;

  void clear() { total_ = 0; }

  /// The dump artifact (schema xkb.obs.flight/1): reason, drop stats, the
  /// last-N timeline, and the caller-built ledger snapshot embedded
  /// verbatim under "ledger" (pass "null" when no ledger is available).
  std::string dump_json(const std::string& reason,
                        const std::string& ledger_snapshot_json) const;

 private:
  std::size_t cap_;
  std::uint64_t total_ = 0;
  std::vector<FlightEntry> ring_;
};

}  // namespace xkb::obs
