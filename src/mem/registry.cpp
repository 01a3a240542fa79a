#include "mem/registry.hpp"

#include <cassert>
#include <stdexcept>

namespace xkb::mem {

DataHandle* Registry::intern(void* origin, std::size_t m, std::size_t n,
                             std::size_t ld, std::size_t wordsize) {
  auto it = handles_.find(origin);
  if (it != handles_.end()) {
    DataHandle* h = it->second.get();
    if (h->m != m || h->n != n || h->ld != ld || h->wordsize != wordsize)
      throw std::invalid_argument(
          "Registry::intern: tile re-registered with different geometry; "
          "composed XKBlas calls must use a consistent blocking");
    return h;
  }
  auto h = std::make_unique<DataHandle>(pool_);
  h->id = next_id_++;
  h->host_ptr = origin;
  h->m = m;
  h->n = n;
  h->ld = ld;
  h->wordsize = wordsize;
  h->host.state = ReplicaState::kValid;  // user data starts on the host
  h->host.resident = true;
  // Device replicas materialise lazily on first touch, in pool_.
  DataHandle* raw = h.get();
  order_.push_back(raw);
  handles_.emplace(origin, std::move(h));
  return raw;
}

DataHandle* Registry::find(void* origin) const {
  auto it = handles_.find(origin);
  return it == handles_.end() ? nullptr : it->second.get();
}

}  // namespace xkb::mem
