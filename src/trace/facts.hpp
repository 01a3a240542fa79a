// The vocabulary of the instrumentation stream.
//
// The runtime reports every fact it produces once, through rt::Platform's
// fan-out, and each sink -- the op trace, xkb::obs, xkb::check -- reads the
// same enums.  They are defined here, below runtime/, so none of those
// sinks has to include the runtime (or keep a mirror of its enums).
//
// xkb::check folds the numeric values into its event-stream hash, so the
// orders are pinned: H2D=0, D2D=1, D2H=2 and host=0, device=1,
// wait-device=2, wait-host=3.
#pragma once

#include <cstdint>

namespace xkb::trace {

/// Class of one GPU operation (nvprof's classes, Section IV-E).
enum class OpKind : std::uint8_t { kHtoD, kPtoP, kDtoH, kKernel };

/// Where a fetch takes its bytes from (DataManager::choose_source).
enum class SourceKind : std::uint8_t {
  kHost,        ///< H2D from the valid host copy
  kDevice,      ///< D2D from a valid peer replica
  kWaitDevice,  ///< chain on a reception in flight to a peer, then forward
  kWaitHost,    ///< chain on a host flush in flight
  kNone,        ///< no copy exists anywhere: parked for a producer replay
};

constexpr const char* to_string(SourceKind k) {
  switch (k) {
    case SourceKind::kHost: return "host";
    case SourceKind::kDevice: return "device";
    case SourceKind::kWaitDevice: return "wait-device";
    case SourceKind::kWaitHost: return "wait-host";
    case SourceKind::kNone: return "none";
  }
  return "?";
}

/// How a task touches a tile.
enum class Access : std::uint8_t { kR, kW, kRW };

/// Which valid replica a fetch copies from (runtime/data_manager.hpp).
enum class SourcePolicy {
  kTopologyAware,
  kFirstValid,
  kSwitchPeer,
  kHostOnly,
};

}  // namespace xkb::trace
