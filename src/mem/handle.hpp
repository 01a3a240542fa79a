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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/small_fn.hpp"
#include "util/slab.hpp"

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

/// Storage for the replica entries of every handle of one Registry:
/// fixed-size blocks, allocated as they fill up.  An entry is never moved,
/// erased or freed before the pool itself dies, which is what keeps a
/// `Replica&` valid for as long as its handle: DeviceCache lists link
/// Replica entries of different handles to each other, and engine
/// callbacks hold them across events.
class ReplicaPool {
 public:
  using Entry = std::pair<const int, Replica>;
  /// Entries per block (about 34 KB).
  static constexpr std::size_t kBlock = 256;

  Entry* make(int g) {
    return slab_.emplace(std::piecewise_construct, std::forward_as_tuple(g),
                         std::forward_as_tuple());
  }
  std::size_t size() const { return slab_.size(); }

 private:
  util::Slab<Entry, kBlock> slab_;
};

/// Sparse per-device replica table.  Historically every handle carried a
/// dense `std::vector<Replica>` sized num_devices -- on a 1024-device fat
/// tree that is a megabyte-scale allocation per *tile*, dominated by
/// never-touched entries.  A replica map materialises an entry only when a
/// device first touches the tile; an absent entry *is* the default Replica
/// (kInvalid, clean, unpinned), so reads of untouched devices go through the
/// const accessors and observe exactly what the dense table held.
///
/// The map is a flat index sorted by device, each slot naming an entry
/// drawn from the Registry's ReplicaPool.  Entries are never erased or
/// moved (the pool guarantees it), so a `Replica&` stays valid across later
/// inserts; only the index is rearranged.  An iterator, by contrast, walks
/// the index and must not be held across an insert.  A lookup probes the
/// index linearly up to kLinearProbe slots and binary-searches beyond
/// (a broadcast tile on a fat tree can be valid on hundreds of devices).
/// "Active" means ever-touched, bounded by the devices a tile actually
/// visited -- the O(active) the topo_bench memory gate measures.
/// Iteration is ascending by device id, matching the historical
/// `for (g = 0; g < n; ++g)` scan order wherever a dense loop was converted
/// to an active-entry walk (determinism: identical effect order).
class ReplicaMap {
  using Entry = ReplicaPool::Entry;
  struct Slot {
    int dev;
    Entry* entry;
  };

  /// Walks the index, yielding the entries (what range-for needs).
  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    explicit Iter(SlotPtr p) : p_(p) {}
    std::conditional_t<Const, const Entry&, Entry&> operator*() const {
      return *p_->entry;
    }
    Iter& operator++() {
      ++p_;
      return *this;
    }
    bool operator==(const Iter&) const = default;

   private:
    SlotPtr p_;
  };

 public:
  /// Linear probing up to this many materialised entries.
  static constexpr std::size_t kLinearProbe = 8;

  explicit ReplicaMap(ReplicaPool& pool) : pool_(&pool) {}
  ReplicaMap(const ReplicaMap&) = delete;
  ReplicaMap& operator=(const ReplicaMap&) = delete;

  /// Mutable access materialises the entry (default Replica on first touch).
  Replica& operator[](int g) {
    Slot* const end = index_.data() + index_.size();
    Slot* s = lower_bound(index_.data(), end, g);
    if (s != end && s->dev == g) return s->entry->second;
    const auto pos = s - index_.data();
    if (index_.capacity() == 0) index_.reserve(4);
    Entry* e = pool_->make(g);
    index_.insert(index_.begin() + pos, {g, e});
    return e->second;
  }

  /// Const access never inserts: untouched devices read as the default
  /// (invalid) replica.
  const Replica& operator[](int g) const {
    const Slot* s = find(g);
    return s ? s->entry->second : kAbsent;
  }

  /// Non-inserting lookup for the device-failure purge: nullptr when the
  /// device never touched the tile.
  Replica* peek(int g) {
    const Slot* s = find(g);
    return s ? &s->entry->second : nullptr;
  }

  /// Number of materialised entries (the topo_bench memory gate).
  std::size_t active() const { return index_.size(); }

  // Ascending-by-device iteration over materialised entries.
  Iter<false> begin() { return Iter<false>(index_.data()); }
  Iter<false> end() { return Iter<false>(index_.data() + index_.size()); }
  Iter<true> begin() const { return Iter<true>(index_.data()); }
  Iter<true> end() const {
    return Iter<true>(index_.data() + index_.size());
  }

 private:
  /// First slot of [s, e) whose device is not below `g`.
  template <class S>
  static S* lower_bound(S* s, S* e, int g) {
    if (e - s <= static_cast<std::ptrdiff_t>(kLinearProbe)) {
      while (s != e && s->dev < g) ++s;
      return s;
    }
    return std::lower_bound(s, e, g,
                            [](const Slot& x, int d) { return x.dev < d; });
  }
  const Slot* find(int g) const {
    const Slot* const end = index_.data() + index_.size();
    const Slot* s = lower_bound(index_.data(), end, g);
    return s != end && s->dev == g ? s : nullptr;
  }

  ReplicaPool* pool_;
  std::vector<Slot> index_;
  inline static const Replica kAbsent{};
};

struct DataHandle {
  /// `pool` holds the handle's replica entries and must outlive it.
  explicit DataHandle(ReplicaPool& pool) : dev(pool) {}

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
