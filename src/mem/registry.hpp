// Handle registry: interns tiles by their host origin address so that
// successive BLAS calls on the same matrices share handles -- the property
// behind the paper's composition of BLAS kernels (Section IV-F): a second
// routine inherits the data distribution left in the cache by the first.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/handle.hpp"

namespace xkb::mem {

class Registry {
 public:
  explicit Registry(int num_devices) : num_devices_(num_devices) {}

  /// Find or create the handle for the tile whose (0,0) element lives at
  /// `origin`.  Dimensions must match on every lookup (XKBlas requires a
  /// consistent blocking across composed calls).
  ///
  /// A new handle's id is the next of 1, 2, 3, ...: ids are dense, and no
  /// id is ever reused, since handles are never dropped.  The per-tile
  /// tables of rt::Runtime, check::Checker and obs::Observability are
  /// indexed by this id, so a reused id would hand a new tile an old one's
  /// state.
  DataHandle* intern(void* origin, std::size_t m, std::size_t n,
                     std::size_t ld, std::size_t wordsize);

  /// Look up without creating (nullptr if unknown).
  DataHandle* find(void* origin) const;

  std::size_t size() const { return handles_.size(); }
  int num_devices() const { return num_devices_; }

  /// All handles, in creation order (deterministic iteration).
  const std::vector<DataHandle*>& all() const { return order_; }

 private:
  int num_devices_;
  /// Every handle's replica entries.  Declared before handles_ so that it
  /// outlives every ReplicaMap drawing from it.
  ReplicaPool pool_;
  std::unordered_map<void*, std::unique_ptr<DataHandle>> handles_;
  std::vector<DataHandle*> order_;
  std::uint64_t next_id_ = 1;
};

}  // namespace xkb::mem
