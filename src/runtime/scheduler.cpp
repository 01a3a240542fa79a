#include "runtime/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "runtime/runtime.hpp"
#include "util/annotations.hpp"

namespace xkb::rt {

XKB_HOT int OwnerComputesScheduler::place(const Task& t, Runtime& rt) {
  Platform& plat = rt.platform();
  // Owner-computes: run where the output tile lives.  The home (set by the
  // 2D block-cyclic default mapping or an explicit distribution) takes
  // precedence over the current dirty location so that a stolen task does
  // not permanently migrate its whole dependency chain.  A failed device
  // cannot be an owner any more: fall through to the next locator.
  for (const TaskAccess& a : t.desc.accesses) {
    if (a.mode == Access::kR) continue;
    const mem::DataHandle* h = a.handle;
    if (h->home_device >= 0 && !plat.device_failed(h->home_device))
      return h->home_device;
    const int dirty = h->dirty_device();
    if (dirty >= 0 && !plat.device_failed(dirty)) return dirty;
    for (const auto& [g, r] : h->dev)
      if (r.state == mem::ReplicaState::kValid && !plat.device_failed(g))
        return g;
  }
  // No located output (e.g. first touch without a home): spread round-robin
  // over the surviving devices.
  const int n = rt.num_gpus();
  for (int i = 0; i < n; ++i) {
    const int g = static_cast<int>(rr_++ % n);
    if (!plat.device_failed(g)) return g;
  }
  return 0;  // unreachable while at least one device is alive
}

XKB_HOT int DmdasScheduler::place(const Task& t, Runtime& rt) {
  Platform& plat = rt.platform();
  const auto& topo = plat.topology();
  const int n = rt.num_gpus();
  if (eta_.size() != static_cast<std::size_t>(n)) eta_.assign(n, 0.0);
  const double now = plat.engine().now();

  const double ktime =
      plat.perf().kernel_time(t.desc.flops, t.desc.min_dim, t.desc.eff_factor,
                              t.desc.single_precision);

  // Estimated cost of moving the operands each device is missing.  Operand
  // by operand, in access order, so every device's sum takes the same
  // additions in the same order as a per-device loop over the operands.
  // One walk of an operand's replicas lists its valid sources and its
  // receptions, both ascending, which the device sweep then steps through.
  xfer_.assign(static_cast<std::size_t>(n), 0.0);
  for (const TaskAccess& a : t.desc.accesses) {
    if (a.mode == Access::kW) continue;
    const mem::DataHandle* h = a.handle;
    valid_.clear();
    flying_.clear();
    for (const auto& [g, r] : h->dev) {
      if (r.state == mem::ReplicaState::kValid)
        valid_.push_back(g);
      else if (r.state == mem::ReplicaState::kInFlight)
        flying_.emplace_back(g, r.eta);
    }
    const double bytes = static_cast<double>(h->bytes());
    std::size_t vi = 0, fi = 0;
    for (int g = 0; g < n; ++g) {
      if (vi < valid_.size() && valid_[vi] == g) {
        ++vi;
        continue;
      }
      const bool failed = plat.device_failed(g);
      if (fi < flying_.size() && flying_[fi].first == g) {
        // Already on its way here: the cost is the remaining wait, not a
        // fresh transfer (charging a full transfer double-counts the data).
        if (!failed) xfer_[g] += std::max(0.0, flying_[fi].second - now);
        ++fi;
        continue;
      }
      if (failed) continue;
      double bw = topo.host_bandwidth_gbps(g);
      for (int s : valid_) bw = std::max(bw, topo.gpu_bandwidth_gbps(s, g));
      xfer_[g] += bytes / (bw * 1e9);
    }
  }

  int best = -1;
  double best_cost = std::numeric_limits<double>::max();
  for (int g = 0; g < n; ++g) {
    if (plat.device_failed(g)) continue;
    const double start = std::max(eta_[g], now);
    const double done = start + xfer_[g] + ktime;
    if (done < best_cost) {
      best_cost = done;
      best = g;
    }
  }
  assert(best >= 0 && "dmdas: no alive device to place on");
  eta_[best] = best_cost;
  return best;
}

int RoundRobinScheduler::place(const Task&, Runtime& rt) {
  const int n = rt.num_gpus();
  for (int i = 0; i < n; ++i) {
    const int g = static_cast<int>(next_++ % n);
    if (!rt.platform().device_failed(g)) return g;
  }
  return 0;  // unreachable while at least one device is alive
}

}  // namespace xkb::rt
