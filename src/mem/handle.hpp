// Data handles: the unit of the multi-GPU software cache.
//
// One handle describes one matrix tile (a LAPACK-layout sub-matrix on the
// host) and tracks every replica of it across device memories, following the
// paper's XKaapi software cache:
//   * per-device replica state {Invalid, Valid, InFlight},
//   * a dirty bit (device copy newer than host) with lazy host coherency --
//     the host copy is repaired only by an explicit memory_coherent,
//   * the InFlight state plus arrival callbacks are the metadata extension
//     of Section III-C that enables the optimistic device-to-device
//     heuristic ("wait for the end of the reception of a copy before
//     forwarding it"),
//   * LRU stamps and pin counts feed the eviction policy (read-only data
//     evicted first, as in XKaapi).
//
// On device, a tile is stored in "compact tile form": dense column-major
// with ld == m, mirroring the paper's cudaMemcpy2D compaction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/small_fn.hpp"

namespace xkb::mem {

enum class ReplicaState : std::uint8_t {
  kInvalid,   ///< no usable copy here
  kInFlight,  ///< a copy is being received (DMA in progress)
  kValid,     ///< usable copy present
};

/// Diagnostic name of a replica state (xkb::check violation messages).
constexpr const char* to_string(ReplicaState s) {
  switch (s) {
    case ReplicaState::kInvalid: return "invalid";
    case ReplicaState::kInFlight: return "in-flight";
    case ReplicaState::kValid: return "valid";
  }
  return "?";
}

struct DataHandle;

/// Where an in-flight replica's bytes are coming from (Replica::fetch_src).
inline constexpr int kFetchHost = -1;    ///< H2D from the host copy
inline constexpr int kFetchIdle = -2;    ///< no fetch in progress
inline constexpr int kFetchParked = -3;  ///< parked until a replay rewrites

/// Per-location replica bookkeeping (host uses the same record as devices).
struct Replica {
  ReplicaState state = ReplicaState::kInvalid;
  bool dirty = false;        ///< newer than every other copy
  bool resident = false;     ///< bytes reserved in this memory
  int pins = 0;              ///< active users (unpinned replicas are evictable)
  sim::Time eta = 0.0;       ///< arrival time when kInFlight
  sim::Time last_use = 0.0;  ///< LRU stamp: the victim-order key
  std::vector<sim::Callback> waiters;  ///< run when kInFlight -> kValid

  // Fetch provenance (xkb::fault recovery).  Pre-fault, an in-flight
  // reception was an opaque promise: a completion lambda somewhere in the
  // engine queue.  Recovery must be able to cancel and re-plan that
  // promise, so the reception now carries explicit metadata:
  //   * fetch_gen is bumped whenever the pending fetch is aborted or
  //     re-planned; every completion callback captures the generation it
  //     was issued under and no-ops on mismatch (the DES analogue of
  //     cancelling a DMA),
  //   * fetch_src records where the bytes come from (device id, kFetchHost,
  //     or kFetchParked while waiting for a lost tile to be recomputed),
  //   * fetch_waiting marks a chained reception: registered on the source
  //     replica's chained_dsts, no transfer issued yet,
  //   * fetch_attempts counts failed attempts for the retry-backoff cap.
  std::uint32_t fetch_gen = 0;
  std::uint16_t fetch_attempts = 0;
  int fetch_src = kFetchIdle;
  bool fetch_waiting = false;
  std::vector<int> chained_dsts;  ///< receptions chained on THIS arrival

  // Intrusive LRU linkage, owned by the DeviceCache the replica is resident
  // in.  Device replicas only; the host Replica is never cached.  The cache
  // keeps one doubly-linked list per victim class (clean/dirty) ordered by
  // (last_use, lru_seq), which is exactly the victim order of the historical
  // sort-based scan: ascending LRU stamp, ties broken by residency order.
  // The links point at the neighbouring Replica itself, so a list walk is
  // one pointer load per hop; lru_owner is the handle eviction reports.
  Replica* lru_prev = nullptr;
  Replica* lru_next = nullptr;
  DataHandle* lru_owner = nullptr;  ///< handle holding this replica (reserve())
  std::uint64_t lru_seq = 0;  ///< residency order, assigned at reserve()
  std::int8_t lru_class = -1; ///< DeviceCache list index, -1 when unlinked
  /// Set by reserve(), cleared by touch(): the replica carries its
  /// reservation stamp, not a use.  DataManager::unpin asserts it is clear
  /// when a resident replica drops to zero pins.
  bool touch_pending = false;
};

/// Sparse per-device replica table.  Historically every handle carried a
/// dense `std::vector<Replica>` sized num_devices -- on a 1024-device fat
/// tree that is a megabyte-scale allocation per *tile*, dominated by
/// never-touched entries.  A replica map materialises an entry only when a
/// device first touches the tile; an absent entry *is* the default Replica
/// (kInvalid, clean, unpinned), so reads of untouched devices go through the
/// const accessors and observe exactly what the dense table held.
///
/// Entries are never erased: DeviceCache lists link Replica entries of
/// different handles to each other, and std::map's stable node addresses are
/// what make those links (and the `Replica&` references held across engine
/// callbacks) safe.  "Active" therefore means ever-touched, which is bounded
/// by the devices a tile actually visited -- the O(active) the topo_bench
/// memory gate measures.  Iteration is ascending by device id, matching the
/// historical `for (g = 0; g < n; ++g)` scan order wherever a dense loop was
/// converted to an active-entry walk (determinism: identical effect order).
class ReplicaMap {
 public:
  /// Mutable access materialises the entry (default Replica on first touch).
  Replica& operator[](int g) { return map_[g]; }

  /// Const access never inserts: untouched devices read as the default
  /// (invalid) replica.
  const Replica& operator[](int g) const {
    const auto it = map_.find(g);
    return it == map_.end() ? kAbsent : it->second;
  }

  /// Non-inserting lookup for the device-failure purge: nullptr when the
  /// device never touched the tile.
  Replica* peek(int g) {
    const auto it = map_.find(g);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Number of materialised entries (the topo_bench memory gate).
  std::size_t active() const { return map_.size(); }

  // Ascending-by-device iteration over materialised entries.
  auto begin() { return map_.begin(); }
  auto end() { return map_.end(); }
  auto begin() const { return map_.begin(); }
  auto end() const { return map_.end(); }

 private:
  std::map<int, Replica> map_;
  inline static const Replica kAbsent{};
};

struct DataHandle {
  std::uint64_t id = 0;

  // Host memory view (the paper's (m, n, ld, wordsize) tuple).
  void* host_ptr = nullptr;
  std::size_t m = 0, n = 0, ld = 0, wordsize = 0;

  /// Dense tile size on a device (compact tile form).
  std::size_t bytes() const { return m * n * wordsize; }

  Replica host;  ///< the host-memory copy
  ReplicaMap dev;  ///< per-GPU replicas, materialised on first touch

  /// Preferred owner device for owner-computes placement (-1 = none).  Set
  /// by 2D block-cyclic distribution or by the tiled-algorithm emitters.
  int home_device = -1;

  /// Monotonic write counter.  Eviction flushes are not dataflow-ordered:
  /// a newer write can land while a flush is in flight, and the flush must
  /// then discard its (stale) payload instead of publishing it to the host.
  std::uint64_t version = 0;

  /// Functional-mode device buffers (dense m*n*wordsize), empty in
  /// timing-only mode.
  std::vector<std::vector<std::byte>> dev_buf;

  /// Devices currently holding a valid copy (host excluded), ascending.
  std::vector<int> valid_devices() const {
    std::vector<int> out;
    for (const auto& [g, r] : dev)
      if (r.state == ReplicaState::kValid) out.push_back(g);
    return out;
  }

  /// Devices with a copy in flight (for the optimistic heuristic).
  std::vector<int> inflight_devices() const {
    std::vector<int> out;
    for (const auto& [g, r] : dev)
      if (r.state == ReplicaState::kInFlight) out.push_back(g);
    return out;
  }

  /// The device holding the dirty (authoritative) copy, or -1.
  int dirty_device() const {
    for (const auto& [g, r] : dev)
      if (r.dirty) return g;
    return -1;
  }

  bool valid_anywhere() const {
    if (host.state == ReplicaState::kValid) return true;
    for (const auto& [g, r] : dev) {
      (void)g;
      if (r.state == ReplicaState::kValid) return true;
    }
    return false;
  }
};

}  // namespace xkb::mem
