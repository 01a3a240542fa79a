// Per-device software cache: capacity accounting and the XKaapi eviction
// policy ("when a GPU cache becomes full, the eviction strategy prioritizes
// read-only data first").
//
// The cache does not own replica state -- DataHandle is the single source of
// truth -- it indexes resident handles per device and picks eviction victims.
//
// Victim bookkeeping is intrusive: each resident replica is linked into one
// of two per-cache LRU lists (clean / dirty; a single list under kLru),
// ordered by (last_use, residency sequence).  That is the same victim order
// the historical implementation produced by sorting all residents on every
// reservation.  Keeping a list sorted costs one walk per relink, which
// starts from both list ends at once: at most the distance to the nearer
// end, and O(1) for the common cases (a reservation, a touch, a write
// stamped before it is dirtied).  Eviction is O(victims + skipped
// pinned/in-flight residents) instead of O(residents log residents) per
// reservation under memory pressure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mem/handle.hpp"

namespace xkb::mem {

/// Thrown when a reservation cannot be satisfied even after eviction
/// (emulates a cudaMalloc failure; the BLASX baseline hits this above
/// N = 45000, like the real library in the paper).
class OutOfDeviceMemory : public std::runtime_error {
 public:
  explicit OutOfDeviceMemory(int device)
      : std::runtime_error("out of device memory on GPU " +
                           std::to_string(device)),
        device(device) {}
  int device;
};

/// Victim-selection policy.  kReadOnlyFirst is XKaapi's strategy (the
/// paper, Section II-C): clean replicas are dropped before dirty ones,
/// which avoids flush traffic on the congested PCIe links; kLru ignores
/// dirtiness and evicts strictly by recency (the ablation baseline).
enum class EvictionPolicy { kReadOnlyFirst, kLru };

class DeviceCache {
 public:
  DeviceCache(int device, std::size_t capacity_bytes,
              EvictionPolicy policy = EvictionPolicy::kReadOnlyFirst)
      : device_(device), capacity_(capacity_bytes), policy_(policy) {}

  int device() const { return device_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }

  /// Reserve room for `h` on this device, evicting victims if needed.
  /// Victims are returned so the caller (DataManager) can flush dirty ones;
  /// clean victims are already invalidated.  Throws OutOfDeviceMemory, and
  /// then changes nothing, when the unpinned, settled residents cannot free
  /// enough room.
  ///
  /// A reservation counts as a use at `now`: the replica is stamped and
  /// links at the MRU end of its list in O(1).  DataManager reserves only
  /// pinned replicas and keeps them pinned until their first touch (arrival
  /// or write), and the victim scan skips pinned replicas, so the stamp
  /// never changes which victims are picked; Replica::touch_pending marks
  /// that window.  Reserving an already resident replica changes nothing.
  struct Reservation {
    std::vector<DataHandle*> clean_evicted;  ///< dropped, no flush needed
    std::vector<DataHandle*> dirty_evicted;  ///< caller must flush to host
  };
  Reservation reserve(DataHandle* h, sim::Time now);

  /// Release the reservation (replica no longer resident).  The replica must
  /// be clean: releasing a dirty replica would silently discard its bytes, so
  /// a dirty copy goes through the flush path, or through supersede() when a
  /// newer version replaces it.
  void release(DataHandle* h);

  /// Drop a copy that a newer version replaces: clears the dirty bit and, if
  /// the replica is resident, releases it.  O(1): one unlink.
  void supersede(DataHandle* h);

  /// Record a use of the resident replica: stamps `last_use = now`, clears
  /// touch_pending and relinks it.  Simulated time is monotonic, so the
  /// replica lands at the MRU end of its victim list past same-timestamp
  /// entries only: O(1) amortized.  Safe on non-resident replicas (stamps
  /// last_use only).
  void touch(DataHandle* h, sim::Time now);

  /// Flip the replica's dirty bit, re-homing it between the clean and dirty
  /// victim lists under kReadOnlyFirst.  All dirty-bit changes of a resident
  /// replica must go through here so the class lists stay truthful.  The
  /// relink keeps last_use, so a writer stamps first -- touch(h, now), then
  /// set_dirty(h, true) -- and lands at the MRU end in O(1); a stale stamp
  /// would walk to its place in the middle of the dirty list.
  void set_dirty(DataHandle* h, bool dirty);

  /// Number of distinct resident handles.
  std::size_t resident_count() const { return resident_count_; }

  std::size_t evictions() const { return evictions_; }

 private:
  // Victim-class list indices.  Under kLru everything lives in kClean.
  static constexpr int kClean = 0;
  static constexpr int kDirty = 1;

  struct LruList {
    Replica* head = nullptr;  ///< least recently used
    Replica* tail = nullptr;  ///< most recently used
  };

  int class_of(const Replica& r) const {
    return (policy_ == EvictionPolicy::kReadOnlyFirst && r.dirty) ? kDirty
                                                                  : kClean;
  }

  /// Insert into its class list at the position sorted by (last_use,
  /// lru_seq), walking inward from both ends.
  void link_sorted(Replica& r);
  void unlink(Replica& r);
  /// Un-account a resident replica of `bytes` and invalidate it.
  void drop(Replica& r, std::size_t bytes);

  int device_;
  std::size_t capacity_;
  EvictionPolicy policy_;
  std::size_t used_ = 0;
  std::size_t evictions_ = 0;
  std::size_t resident_count_ = 0;
  std::uint64_t next_seq_ = 0;
  LruList lists_[2];
  std::vector<Replica*> victims_;  ///< reserve() scratch, reused
};

}  // namespace xkb::mem
