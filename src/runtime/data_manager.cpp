#include "runtime/data_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>
#include <utility>

#include "check/check.hpp"
#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "util/selfprof.hpp"

namespace xkb::rt {

namespace {

/// Host -> dense: compact a strided LAPACK-layout tile into tile form
/// (the cudaMemcpy2D compaction of the paper: ld becomes m).
void pack_tile(const mem::DataHandle& h, std::byte* dst) {
  const auto* src = static_cast<const std::byte*>(h.host_ptr);
  const std::size_t col = h.m * h.wordsize;
  for (std::size_t j = 0; j < h.n; ++j)
    std::memcpy(dst + j * col, src + j * h.ld * h.wordsize, col);
}

/// Dense -> host: scatter a compact tile back into the strided host view.
void unpack_tile(const mem::DataHandle& h, const std::byte* src) {
  auto* dst = static_cast<std::byte*>(h.host_ptr);
  const std::size_t col = h.m * h.wordsize;
  for (std::size_t j = 0; j < h.n; ++j)
    std::memcpy(dst + j * h.ld * h.wordsize, src + j * col, col);
}

std::string endpoint_name(int dev) {
  return dev >= 0 ? "gpu" + std::to_string(dev) : std::string("host");
}

}  // namespace

void DataManager::acquire(mem::DataHandle* h, int dev, Access mode,
                          sim::Callback done) {
  mem::Replica& r = h->dev[dev];
  r.pins++;  // pinned from request to task completion
  if (mode == Access::kW) {
    // Write-only: allocation suffices, no data movement.
    acquire_write(h, dev, std::move(done));
    return;
  }
  ensure_valid(h, dev, std::move(done));
}

void DataManager::acquire_write(mem::DataHandle* h, int dev,
                                sim::Callback done) {
  if (!try_reserve_or_defer(h, dev, done, &DataManager::acquire_write)) return;
  plat_->engine().schedule_after(0.0, std::move(done));
}

bool DataManager::try_reserve_or_defer(mem::DataHandle* h, int dev,
                                       sim::Callback& done, RetryFn retry) {
  try {
    reserve_with_flushes(h, dev);
    consecutive_oom_ = 0;
    return true;
  } catch (const mem::OutOfDeviceMemory&) {
    // Everything evictable is pinned by in-flight work: wait for some of it
    // to complete and retry.  A long streak with no successful reservation
    // anywhere means the working set genuinely exceeds device memory.
    if (++consecutive_oom_ > 100000) throw;
    stats_.oom_deferrals++;
    plat_->engine().schedule_after(
        50e-6, [this, h, dev, retry, done = std::move(done)]() mutable {
          (this->*retry)(h, dev, std::move(done));
        });
    return false;
  }
}

void DataManager::prefetch(mem::DataHandle* h, int dev, sim::Callback done) {
  ensure_valid(h, dev, std::move(done));
}

void DataManager::unpin(mem::DataHandle* h, int dev) {
  mem::Replica& r = h->dev[dev];
  assert(r.pins > 0);
  r.pins--;
}

void DataManager::ensure_valid(mem::DataHandle* h, int dev,
                               sim::Callback done) {
  mem::Replica& r = h->dev[dev];
  if (r.state == mem::ReplicaState::kValid) {
    if (obs::Observability* o = plat_->obs())
      o->on_cache_ref(dev, obs::CacheRef::kHit);
    plat_->cache(dev).touch(h, plat_->engine().now());
    plat_->engine().schedule_after(0.0, std::move(done));
    return;
  }
  if (r.state == mem::ReplicaState::kInFlight) {
    if (obs::Observability* o = plat_->obs())
      o->on_cache_ref(dev, obs::CacheRef::kInFlightHit);
    r.waiters.push_back(std::move(done));
    return;
  }

  if (!try_reserve_or_defer(h, dev, done, &DataManager::ensure_valid)) return;

  if (obs::Observability* o = plat_->obs())
    o->on_cache_ref(dev, obs::CacheRef::kMiss);
  if (plat_->options().functional && h->dev_buf.empty())
    h->dev_buf.resize(plat_->num_gpus());
  if (plat_->options().functional && h->dev_buf[dev].size() != h->bytes())
    h->dev_buf[dev].resize(h->bytes());
  r.state = mem::ReplicaState::kInFlight;
  r.waiters.push_back(std::move(done));
  plan_fetch(h, dev);
}

void DataManager::plan_fetch(mem::DataHandle* h, int dev) {
  prof::ScopedTimer pt(prof::Phase::kDmFetch);
  mem::Replica& r = h->dev[dev];
  assert(r.state == mem::ReplicaState::kInFlight);
  // Mask the destination while choosing: a re-planned fetch is itself
  // kInFlight and must never pick (or chain on) itself.
  r.state = mem::ReplicaState::kInvalid;
  const Source s = choose_source(*h, dev);
  r.state = mem::ReplicaState::kInFlight;

  if (s.kind == Source::kNone) {
    // No copy of the bytes exists anywhere.  Legal only while a producer
    // replay is rebuilding the tile: park until its mark_written re-plans.
    if (!replay_pending_.count(h)) {
      std::ostringstream os;
      os << "no copy of tile " << h->id << " (version " << h->version
         << ") exists anywhere and no replay is pending: fetch to gpu" << dev
         << " cannot be satisfied";
      throw fault::UnrecoverableDataLoss(os.str());
    }
    r.fetch_src = mem::kFetchParked;
    r.fetch_waiting = false;
    if (obs::Observability* o = plat_->obs()) o->count_fault("parked_fetch");
    return;
  }

  if (obs::Observability* o = plat_->obs()) {
    obs::Decision d;
    d.t = plat_->engine().now();
    d.handle = h->id;
    d.dst = dev;
    switch (s.kind) {
      case Source::kHost: d.pick = obs::Pick::kHost; break;
      case Source::kDevice: d.pick = obs::Pick::kDevice; break;
      case Source::kWaitDevice: d.pick = obs::Pick::kWaitDevice; break;
      case Source::kWaitHost: d.pick = obs::Pick::kWaitHost; break;
      case Source::kNone: break;  // handled above
    }
    d.picked_dev = s.dev;
    d.forced = s.forced;
    const auto& topo = plat_->topology();
    for (int g : h->valid_devices())
      d.candidates.push_back({g, topo.p2p_perf_rank(g, dev), false});
    for (int g : h->inflight_devices())
      if (g != dev) d.candidates.push_back({g, topo.p2p_perf_rank(g, dev), true});
    o->on_decision(std::move(d));
  }
  if (check::Checker* c = plat_->checker()) {
    check::SourceKind k = check::SourceKind::kHost;
    switch (s.kind) {
      case Source::kHost: k = check::SourceKind::kHost; break;
      case Source::kDevice: k = check::SourceKind::kDevice; break;
      case Source::kWaitDevice: k = check::SourceKind::kWaitDevice; break;
      case Source::kWaitHost: k = check::SourceKind::kWaitHost; break;
      case Source::kNone: break;  // handled above
    }
    c->on_source_choice(h, dev, k, s.dev, s.forced);
  }

  switch (s.kind) {
    case Source::kHost:
      issue_h2d(h, dev);
      break;
    case Source::kDevice:
      h->dev[s.dev].pins++;  // keep the source alive during the copy
      issue_p2p(h, s.dev, dev);
      break;
    case Source::kWaitDevice: {
      // Chain on the in-flight reception.  Only waits *chosen* by the
      // optimistic heuristic count towards its ablation counter; waits forced
      // by coherence (the in-flight copy is the only one) fire under every
      // configuration and are tallied separately.
      const int g = s.dev;
      (s.forced ? stats_.forced_waits : stats_.optimistic_waits)++;
      if (obs::Observability* o = plat_->obs())
        o->on_wait(h->id, g, dev, s.forced);
      h->dev[g].pins++;  // survive until the forwarding copy completes
      r.eta = h->dev[g].eta;  // rough: refined when the copy is issued
      r.fetch_src = g;
      r.fetch_waiting = true;
      h->dev[g].chained_dsts.push_back(dev);
      break;
    }
    case Source::kWaitHost:
      r.fetch_src = mem::kFetchHost;
      r.fetch_waiting = true;
      h->host.chained_dsts.push_back(dev);
      break;
    case Source::kNone:
      break;  // handled above
  }
}

void DataManager::replan_fetch(mem::DataHandle* h, int dev) {
  mem::Replica& r = h->dev[dev];
  if (r.state != mem::ReplicaState::kInFlight) return;
  r.fetch_gen++;  // cancel whatever copy or chain was feeding this replica
  r.fetch_src = mem::kFetchIdle;
  r.fetch_waiting = false;
  plan_fetch(h, dev);
}

bool DataManager::reception_fed(const mem::DataHandle& h, int dev) const {
  int cur = dev;
  for (int hops = 0; hops <= plat_->num_gpus(); ++hops) {
    const mem::Replica& r = h.dev[cur];
    if (r.state != mem::ReplicaState::kInFlight) return false;
    if (r.fetch_src == mem::kFetchIdle || r.fetch_src == mem::kFetchParked)
      return false;  // aborted (awaiting backoff) or parked for a replay
    if (r.fetch_src == mem::kFetchHost) return true;
    if (plat_->device_failed(r.fetch_src)) return false;
    if (!r.fetch_waiting) return true;  // an actual copy feeds the chain
    cur = r.fetch_src;
  }
  return false;  // cycle: never chain on it
}

DataManager::Source DataManager::choose_source(const mem::DataHandle& h,
                                               int dst) const {
  const auto& topo = plat_->topology();
  // Failed devices are filtered defensively: mid-recovery, a handle later in
  // the purge order may still show a "valid" replica on the dead GPU.
  std::vector<int> valid;
  for (int g : h.valid_devices())
    if (!plat_->device_failed(g)) valid.push_back(g);
  // Candidates to chain on: live receptions whose wait-chain terminates in
  // an actual transfer (chaining on a parked or orphaned reception would
  // deadlock, and mutual chains would cycle).
  auto fed_flying = [&] {
    std::vector<int> out;
    for (int g : h.inflight_devices())
      if (g != dst && !plat_->device_failed(g) && reception_fed(h, g))
        out.push_back(g);
    return out;
  };

  if (!valid.empty()) {
    switch (cfg_.source) {
      case SourcePolicy::kTopologyAware: {
        int best = valid.front();
        for (int g : valid)
          if (topo.p2p_perf_rank(g, dst) > topo.p2p_perf_rank(best, dst))
            best = g;
        if (topo.p2p_perf_rank(best, dst) > 0) return {Source::kDevice, best};
        break;  // no peer path: fall through to the host
      }
      case SourcePolicy::kFirstValid:
        if (topo.p2p_perf_rank(valid.front(), dst) > 0)
          return {Source::kDevice, valid.front()};
        break;
      case SourcePolicy::kSwitchPeer: {
        for (int g : valid)
          if (topo.host_link_of(g) == topo.host_link_of(dst))
            return {Source::kDevice, g};
        break;  // no switch peer holds it: use the host
      }
      case SourcePolicy::kHostOnly:
        break;
    }
  }

  if (h.host.state == mem::ReplicaState::kValid) {
    // Optimistic heuristic: a duplicate H2D can be avoided by waiting for an
    // ongoing reception on a peer GPU and forwarding from there.
    if (cfg_.optimistic_d2d) {
      const std::vector<int> flying = fed_flying();
      if (!flying.empty()) {
        int best = flying.front();
        for (int g : flying)
          if (topo.p2p_perf_rank(g, dst) > topo.p2p_perf_rank(best, dst))
            best = g;
        if (topo.p2p_perf_rank(best, dst) > 0)
          return {Source::kWaitDevice, best};
      }
    }
    return {Source::kHost, -1};
  }

  // Host copy not valid.  If some device holds the data but has no peer path
  // (or the policy refused it), we still must produce the bytes: fall back to
  // the authoritative device copy.
  if (!valid.empty()) return {Source::kDevice, valid.front()};

  if (h.host.state == mem::ReplicaState::kInFlight)
    return {Source::kWaitHost, -1};

  const std::vector<int> flying = fed_flying();
  if (flying.empty()) return {Source::kNone, -1};
  // Forced wait (not a heuristic): the only copy is in flight.
  int best = flying.front();
  for (int g : flying)
    if (topo.p2p_perf_rank(g, dst) > topo.p2p_perf_rank(best, dst)) best = g;
  return {Source::kWaitDevice, best, /*forced=*/true};
}

void DataManager::reserve_with_flushes(mem::DataHandle* h, int dev) {
  auto res = plat_->cache(dev).reserve(h);
  if (check::Checker* c = plat_->checker())
    for (mem::DataHandle* v : res.clean_evicted)
      c->on_evict(v, dev, /*was_dirty=*/false);
  if (obs::Observability* o = plat_->obs())
    for (std::size_t i = 0; i < res.clean_evicted.size(); ++i)
      o->on_evict(dev, /*dirty=*/false);
  for (mem::DataHandle* v : res.dirty_evicted) {
    stats_.evict_flushes++;
    if (check::Checker* c = plat_->checker())
      c->on_evict(v, dev, /*was_dirty=*/true);
    if (obs::Observability* o = plat_->obs()) o->on_evict(dev, /*dirty=*/true);
    flush_from_device(v, dev, /*drop_buffer=*/true);
  }
  if (plat_->options().functional) {
    if (h->dev_buf.empty()) h->dev_buf.resize(plat_->num_gpus());
    if (h->dev_buf[dev].size() != h->bytes()) h->dev_buf[dev].resize(h->bytes());
  }
}

void DataManager::issue_h2d(mem::DataHandle* h, int dst) {
  mem::Replica& r = h->dev[dst];
  r.fetch_src = mem::kFetchHost;
  r.fetch_waiting = false;
  const std::uint32_t gen = r.fetch_gen;
  bool fail = false;
  if (fault::Injector* f = plat_->fault())
    fail = f->should_fail_transfer(fault::TransferKind::kH2D, -1, dst,
                                   plat_->engine().now());
  stats_.h2d++;
  auto iv = plat_->copy_h2d(dst, h->bytes(), [this, h, dst, gen, fail] {
    mem::Replica& r = h->dev[dst];
    // Cancelled mid-flight (re-plan or device failure): whoever bumped the
    // generation owns the cleanup; this completion is a dead DMA.
    if (r.fetch_gen != gen || r.state != mem::ReplicaState::kInFlight) return;
    if (fail) {
      reception_failed(h, mem::kFetchHost, dst);
      return;
    }
    if (plat_->options().functional) pack_tile(*h, h->dev_buf[dst].data());
    complete_arrival(h, dst);
  });
  if (check::Checker* c = plat_->checker())
    c->on_transfer_issue(check::TransferKind::kH2D, h, -1, dst, iv.start,
                         iv.end);
  if (obs::Observability* o = plat_->obs())
    o->on_transfer(obs::Xfer::kH2D, h->id, -1, dst, iv, h->bytes(),
                   /*chained=*/false);
  r.eta = iv.end;
}

void DataManager::issue_p2p(mem::DataHandle* h, int src, int dst,
                            bool chained) {
  assert(h->dev[src].state == mem::ReplicaState::kValid);
  mem::Replica& r = h->dev[dst];
  r.fetch_src = src;
  r.fetch_waiting = false;
  const std::uint32_t gen = r.fetch_gen;
  bool fail = false;
  if (fault::Injector* f = plat_->fault())
    fail = f->should_fail_transfer(fault::TransferKind::kD2D, src, dst,
                                   plat_->engine().now());
  stats_.d2d++;
  auto iv = plat_->copy_p2p(src, dst, h->bytes(), [this, h, src, dst, gen,
                                                   fail] {
    mem::Replica& r = h->dev[dst];
    if (r.fetch_gen != gen || r.state != mem::ReplicaState::kInFlight) return;
    if (fail) {
      reception_failed(h, src, dst);  // drops the source pin
      return;
    }
    if (plat_->options().functional)
      std::memcpy(h->dev_buf[dst].data(), h->dev_buf[src].data(), h->bytes());
    unpin(h, src);
    complete_arrival(h, dst);
  });
  if (check::Checker* c = plat_->checker())
    c->on_transfer_issue(check::TransferKind::kD2D, h, src, dst, iv.start,
                         iv.end);
  if (obs::Observability* o = plat_->obs())
    o->on_transfer(obs::Xfer::kD2D, h->id, src, dst, iv, h->bytes(), chained);
  r.eta = iv.end;
}

void DataManager::reception_failed(mem::DataHandle* h, int src, int dst) {
  fault::Injector* f = plat_->fault();
  assert(f && "transfer failure without an injector");
  mem::Replica& r = h->dev[dst];
  if (src >= 0 && !plat_->device_failed(src)) unpin(h, src);
  r.fetch_attempts++;
  const fault::RetryPolicy& rp = f->retry();
  const int attempts = r.fetch_attempts;
  if (obs::Observability* o = plat_->obs()) {
    std::ostringstream os;
    os << (src >= 0 ? "d2d" : "h2d") << " tile " << h->id << " "
       << endpoint_name(src) << "->gpu" << dst << " attempt " << attempts;
    o->on_fault_mark(plat_->engine().now(), "transfer_abort", os.str());
  }
  if (attempts > rp.max_transfer_retries) {
    std::ostringstream os;
    os << "transfer of tile " << h->id << " to gpu" << dst << " from "
       << endpoint_name(src) << " failed " << attempts
       << " times (retry cap " << rp.max_transfer_retries
       << "): giving up";
    throw fault::TransferRetriesExhausted(os.str());
  }
  stats_.transfer_aborts++;
  if (check::Checker* c = plat_->checker())
    c->on_transfer_abort(src >= 0 ? check::TransferKind::kD2D
                                  : check::TransferKind::kH2D,
                         h, src, dst, static_cast<std::size_t>(attempts),
                         static_cast<std::size_t>(rp.max_transfer_retries));
  r.fetch_gen++;
  r.fetch_src = mem::kFetchIdle;
  r.fetch_waiting = false;
  const std::uint32_t gen = r.fetch_gen;
  const double delay = rp.backoff_for(attempts);
  auto retry = [this, h, dst, gen] {
    mem::Replica& rr = h->dev[dst];
    if (rr.fetch_gen != gen || rr.state != mem::ReplicaState::kInFlight)
      return;  // superseded while backing off (e.g. device-failure re-plan)
    stats_.transfer_retries++;
    if (obs::Observability* o = plat_->obs()) o->count_fault("transfer_retry");
    plan_fetch(h, dst);
  };
  XKB_ASSERT_INLINE_CAPTURE(retry);
  plat_->engine().schedule_after(delay, std::move(retry));
}

void DataManager::complete_arrival(mem::DataHandle* h, int dev) {
  mem::Replica& r = h->dev[dev];
  assert(r.state == mem::ReplicaState::kInFlight);
  r.state = mem::ReplicaState::kValid;
  r.fetch_src = mem::kFetchIdle;
  r.fetch_waiting = false;
  r.fetch_attempts = 0;
  if (check::Checker* c = plat_->checker())
    c->on_arrival(h, dev, plat_->engine().now());
  plat_->cache(dev).touch(h, plat_->engine().now());
  // Forward to every reception chained on this arrival (Section III-C).
  // Chains cancelled by recovery removed themselves from the list, so
  // whatever is left is still waiting on us.
  auto chains = std::move(r.chained_dsts);
  r.chained_dsts.clear();
  for (int d : chains) {
    mem::Replica& rd = h->dev[d];
    if (rd.state == mem::ReplicaState::kInFlight && rd.fetch_waiting &&
        rd.fetch_src == dev) {
      issue_p2p(h, dev, d, /*chained=*/true);
    } else {
      unpin(h, dev);  // stale entry: drop its registration pin
    }
  }
  auto waiters = std::move(r.waiters);
  r.waiters.clear();
  for (auto& w : waiters) w();
}

void DataManager::mark_written(mem::DataHandle* h, int dev) {
  // Dependencies guarantee no reader transfer overlaps a writer kernel --
  // except fetches parked for this very write (a producer replay), which
  // re-plan below once the new version exists.
  std::vector<int> parked;
  for (auto& [g, o] : h->dev) {
    if (g == dev) continue;
    if (o.state == mem::ReplicaState::kInFlight) {
      if (o.fetch_src == mem::kFetchParked) {
        parked.push_back(g);
        continue;
      }
      assert(false && "write raced an in-flight replica: dependency bug");
    }
    // The new version supersedes every peer copy, a dirty one included.
    if (o.resident && !h->dev_buf.empty()) {
      h->dev_buf[g].clear();
      h->dev_buf[g].shrink_to_fit();
    }
    plat_->cache(g).supersede(h);
  }
  h->version++;
  bool reflush_host = false;
  if (h->host.state == mem::ReplicaState::kValid) {
    h->host.state = mem::ReplicaState::kInvalid;  // lazy host coherency
  } else if (h->host.state == mem::ReplicaState::kInFlight &&
             h->host.fetch_src == mem::kFetchIdle) {
    // The flush feeding the host promise was aborted (its source GPU died,
    // or it is a promise parked on this very replay).  The old version is
    // gone for good: serve waiters from the new one, or drop the promise.
    if (!h->host.waiters.empty() || !h->host.chained_dsts.empty())
      reflush_host = true;
    else
      h->host.state = mem::ReplicaState::kInvalid;
  }
  // Any *active* flush's completion detects the version bump itself,
  // discards the stale payload and re-flushes for waiters.

  mem::Replica& r = h->dev[dev];
  const bool was_parked = r.state == mem::ReplicaState::kInFlight &&
                          r.fetch_src == mem::kFetchParked;
  r.state = mem::ReplicaState::kValid;
  r.fetch_gen++;  // supersede any stale fetch bookkeeping on the writer
  r.fetch_src = mem::kFetchIdle;
  r.fetch_waiting = false;
  r.fetch_attempts = 0;
  // Stamp before dirtying: the relink into the dirty list then lands at its
  // MRU end instead of walking to the writer's stale stamp.
  plat_->cache(dev).touch(h, plat_->engine().now());
  plat_->cache(dev).set_dirty(h, true);
  if (check::Checker* c = plat_->checker())
    c->on_mark_written(h, dev, plat_->engine().now());
  replay_pending_.erase(h);
  if (was_parked) {
    // The replay landed on the very device a parked fetch was promised to:
    // the write itself satisfies the promise.
    auto waiters = std::move(r.waiters);
    r.waiters.clear();
    for (auto& w : waiters) w();
  }
  for (int g : parked) replan_fetch(h, g);
  if (reflush_host) flush_from_device(h, dev, /*drop_buffer=*/false);
}

void DataManager::host_write(mem::DataHandle* h) {
  // A stale eviction flush may still be in flight; bumping the version
  // makes its completion discard the payload instead of overwriting the
  // CPU's new data.
  h->version++;
  std::vector<int> parked;
  for (auto& [g, r] : h->dev) {
    if (r.state == mem::ReplicaState::kInFlight) {
      if (r.fetch_src == mem::kFetchParked) {
        parked.push_back(g);
        continue;
      }
      assert(false && "host write raced a device transfer: dependency bug");
    }
    // The CPU's new bytes supersede every device copy, a dirty one included.
    if (r.resident && !h->dev_buf.empty()) {
      h->dev_buf[g].clear();
      h->dev_buf[g].shrink_to_fit();
    }
    plat_->cache(g).supersede(h);
  }
  h->host.state = mem::ReplicaState::kValid;
  h->host.fetch_src = mem::kFetchIdle;  // any aborted flush is superseded
  if (check::Checker* c = plat_->checker()) c->on_host_write(h);
  replay_pending_.erase(h);
  for (int g : parked) replan_fetch(h, g);
  // Receptions chained on a host flush promise: the CPU write supersedes
  // the flush, so feed them from the (now valid) host copy directly.
  auto chains = std::move(h->host.chained_dsts);
  h->host.chained_dsts.clear();
  for (int d : chains) {
    mem::Replica& rd = h->dev[d];
    if (rd.state == mem::ReplicaState::kInFlight && rd.fetch_waiting &&
        rd.fetch_src == mem::kFetchHost)
      issue_h2d(h, d);
  }
}

void DataManager::flush_to_host(mem::DataHandle* h, sim::Callback done) {
  if (h->host.state == mem::ReplicaState::kValid) {
    plat_->engine().schedule_after(0.0, std::move(done));
    return;
  }
  if (h->host.state == mem::ReplicaState::kInFlight) {
    h->host.waiters.push_back(std::move(done));
    return;
  }
  const int src = h->dirty_device();
  if (src < 0) {
    // Only legal while a producer replay is rebuilding the tile: park the
    // host promise; the replay's mark_written re-flushes for the waiter.
    assert(replay_pending_.count(h) &&
           "host invalid but no device holds a dirty copy");
    h->host.state = mem::ReplicaState::kInFlight;
    h->host.fetch_src = mem::kFetchIdle;
    h->host.waiters.push_back(std::move(done));
    return;
  }
  h->host.waiters.push_back(std::move(done));
  flush_from_device(h, src, /*drop_buffer=*/false);  // pins src internally
}

void DataManager::flush_from_device(mem::DataHandle* h, int src,
                                    bool drop_buffer) {
  h->host.state = mem::ReplicaState::kInFlight;
  h->host.fetch_gen++;  // supersede any older flush still airborne
  h->host.fetch_src = src;
  const std::uint32_t gen = h->host.fetch_gen;
  bool fail = false;
  if (fault::Injector* f = plat_->fault())
    fail = f->should_fail_transfer(fault::TransferKind::kD2H, src, -1,
                                   plat_->engine().now());
  h->dev[src].pins++;
  stats_.d2h++;
  const std::uint64_t v0 = h->version;
  if (check::Checker* c = plat_->checker()) c->on_host_flush_issue(h, src, v0);
  auto iv = plat_->copy_d2h(src, h->bytes(), [this, h, src, drop_buffer, v0,
                                              gen, fail] {
    // The source pin is released even when this flush was superseded by a
    // newer one -- unless the device died, which zeroed its pin counts.
    if (!plat_->device_failed(src)) h->dev[src].pins--;
    if (h->host.fetch_gen != gen) return;  // aborted or superseded
    h->host.fetch_src = mem::kFetchIdle;
    if (fail) {
      flush_failed(h, src, drop_buffer);
      return;
    }
    if (check::Checker* c = plat_->checker())
      c->on_host_flush_done(h, src, /*stale=*/h->version != v0, v0,
                            plat_->engine().now());

    if (h->version != v0) {
      // A newer version was produced while this (eviction) flush was in
      // flight: the copied bytes are stale and must not reach the host.
      if (plat_->options().functional && drop_buffer &&
          !h->dev[src].resident) {
        h->dev_buf[src].clear();
        h->dev_buf[src].shrink_to_fit();
      }
      if (h->host.state == mem::ReplicaState::kInFlight) {
        // Waiters still expect a valid host copy: restart from the current
        // authoritative replica (the CPU may instead have overwritten the
        // host meanwhile, in which case host is already kValid).
        const int nsrc = h->dirty_device();
        assert(nsrc >= 0 && "host awaited but no authoritative copy");
        flush_from_device(h, nsrc, /*drop_buffer=*/false);
      }
      return;
    }

    if (plat_->options().functional) {
      unpack_tile(*h, h->dev_buf[src].data());
      // Only drop the buffer if the replica was not re-reserved while this
      // flush was in flight -- a new acquisition may already own it and
      // will fill it from the (now valid) host copy.
      if (drop_buffer && !h->dev[src].resident) {
        h->dev_buf[src].clear();
        h->dev_buf[src].shrink_to_fit();
      }
    }
    if (h->dev[src].resident) plat_->cache(src).set_dirty(h, false);
    h->host.state = mem::ReplicaState::kValid;
    h->host.fetch_attempts = 0;
    auto waiters = std::move(h->host.waiters);
    h->host.waiters.clear();
    for (auto& w : waiters) w();
    // Receptions that chained on this flush (kWaitHost): fetch them now.
    auto chains = std::move(h->host.chained_dsts);
    h->host.chained_dsts.clear();
    for (int d : chains) {
      mem::Replica& rd = h->dev[d];
      if (rd.state == mem::ReplicaState::kInFlight && rd.fetch_waiting &&
          rd.fetch_src == mem::kFetchHost)
        issue_h2d(h, d);
    }
  });
  if (obs::Observability* o = plat_->obs())
    o->on_transfer(obs::Xfer::kD2H, h->id, src, -1, iv, h->bytes(),
                   /*chained=*/false);
}

void DataManager::flush_failed(mem::DataHandle* h, int src, bool drop_buffer) {
  fault::Injector* f = plat_->fault();
  assert(f && "flush failure without an injector");
  h->host.fetch_attempts++;
  const fault::RetryPolicy& rp = f->retry();
  const int attempts = h->host.fetch_attempts;
  if (obs::Observability* o = plat_->obs()) {
    std::ostringstream os;
    os << "d2h tile " << h->id << " gpu" << src << "->host attempt "
       << attempts;
    o->on_fault_mark(plat_->engine().now(), "transfer_abort", os.str());
  }
  if (attempts > rp.max_transfer_retries) {
    std::ostringstream os;
    os << "flush of tile " << h->id << " from gpu" << src << " to the host"
       << " failed " << attempts << " times (retry cap "
       << rp.max_transfer_retries << "): giving up";
    throw fault::TransferRetriesExhausted(os.str());
  }
  stats_.transfer_aborts++;
  if (check::Checker* c = plat_->checker())
    c->on_transfer_abort(check::TransferKind::kD2H, h, src, -1,
                         static_cast<std::size_t>(attempts),
                         static_cast<std::size_t>(rp.max_transfer_retries));
  h->host.fetch_gen++;
  const std::uint32_t gen = h->host.fetch_gen;
  const double delay = rp.backoff_for(attempts);
  auto retry = [this, h, src, drop_buffer, gen] {
    if (h->host.fetch_gen != gen ||
        h->host.state != mem::ReplicaState::kInFlight)
      return;  // superseded (device failure re-planned, or CPU overwrote)
    stats_.transfer_retries++;
    if (obs::Observability* o = plat_->obs()) o->count_fault("transfer_retry");
    // Re-read from whichever device is authoritative by now; for an
    // eviction flush the replica is already invalid (the bytes only live
    // in its buffer), so retry against the original source.
    const int nsrc = h->dirty_device();
    flush_from_device(h, nsrc >= 0 ? nsrc : src,
                      nsrc >= 0 ? false : drop_buffer);
  };
  XKB_ASSERT_INLINE_CAPTURE(retry);
  plat_->engine().schedule_after(delay, std::move(retry));
}

void DataManager::on_device_failure(
    int g, const std::vector<mem::DataHandle*>& handles,
    const std::function<bool(mem::DataHandle*, std::string&)>& replay) {
  std::vector<std::pair<mem::DataHandle*, bool>> lost;  // (handle, was_dirty)
  std::vector<mem::DataHandle*> flush_aborted;

  // Pass 1: cancel everything touching g and purge its replicas, so no
  // later source choice (including the ones replays will trigger) can see
  // the dead device's state.
  for (mem::DataHandle* h : handles) {
    // peek: a handle the dead device never touched has nothing to purge,
    // and the scan must not materialise a replica entry per handle.
    mem::Replica* rp = h->dev.peek(g);
    if (rp && rp->state == mem::ReplicaState::kInFlight) {
      mem::Replica& r = *rp;
      // The reception *into* g: detach it from whatever was feeding it.
      if (r.fetch_waiting && r.fetch_src >= 0) {
        auto& cd = h->dev[r.fetch_src].chained_dsts;
        cd.erase(std::remove(cd.begin(), cd.end(), g), cd.end());
        if (!plat_->device_failed(r.fetch_src)) unpin(h, r.fetch_src);
      } else if (r.fetch_waiting && r.fetch_src == mem::kFetchHost) {
        auto& cd = h->host.chained_dsts;
        cd.erase(std::remove(cd.begin(), cd.end(), g), cd.end());
      } else if (r.fetch_src >= 0 || r.fetch_src == mem::kFetchHost) {
        // An actual copy toward g is airborne: abort it.
        stats_.transfer_aborts++;
        if (check::Checker* c = plat_->checker())
          c->on_transfer_abort(r.fetch_src >= 0 ? check::TransferKind::kD2D
                                                : check::TransferKind::kH2D,
                               h, r.fetch_src, g, 0, 0);
        if (obs::Observability* o = plat_->obs()) {
          std::ostringstream os;
          os << (r.fetch_src >= 0 ? "d2d" : "h2d") << " tile " << h->id
             << " " << endpoint_name(r.fetch_src) << "->gpu" << g
             << " cancelled: destination died";
          o->on_fault_mark(plat_->engine().now(), "transfer_abort", os.str());
        }
        if (r.fetch_src >= 0 && !plat_->device_failed(r.fetch_src))
          unpin(h, r.fetch_src);
      }
    }
    // A host flush reading from g dies with it.
    if (h->host.state == mem::ReplicaState::kInFlight &&
        h->host.fetch_src == g) {
      stats_.transfer_aborts++;
      if (check::Checker* c = plat_->checker())
        c->on_transfer_abort(check::TransferKind::kD2H, h, g, -1, 0, 0);
      if (obs::Observability* o = plat_->obs()) {
        std::ostringstream os;
        os << "d2h tile " << h->id << " gpu" << g
           << "->host cancelled: source died";
        o->on_fault_mark(plat_->engine().now(), "transfer_abort", os.str());
      }
      h->host.fetch_gen++;
      h->host.fetch_src = mem::kFetchIdle;
      flush_aborted.push_back(h);
    }
    // Purge the replica itself (nothing to purge when g never touched h).
    if (!rp) continue;
    mem::Replica& r = *rp;
    const bool was_valid = r.state == mem::ReplicaState::kValid;
    const bool was_dirty = r.dirty;
    if (r.resident) {
      plat_->cache(g).supersede(h);
      if (!h->dev_buf.empty()) {
        h->dev_buf[g].clear();
        h->dev_buf[g].shrink_to_fit();
      }
    }
    r.state = mem::ReplicaState::kInvalid;
    r.pins = 0;
    r.waiters.clear();
    r.chained_dsts.clear();  // dependents re-plan in pass 3
    r.fetch_gen++;  // cancel any airborne copy toward g
    r.fetch_src = mem::kFetchIdle;
    r.fetch_waiting = false;
    r.fetch_attempts = 0;
    r.eta = 0.0;
    if (was_valid) {
      if (check::Checker* c = plat_->checker())
        c->on_replica_lost(h, g, was_dirty);
      if (obs::Observability* o = plat_->obs())
        o->count_fault("replica_lost");
      if (was_dirty) lost.emplace_back(h, true);
    }
  }

  // Pass 2: recover lost dirty data -- promote a surviving current copy,
  // or arrange a producer replay.  Every needs-replay handle is registered
  // before any replay task is actually submitted (the runtime defers the
  // submissions until this call returns), so their operand fetches park
  // instead of tripping the no-copy diagnostic.
  for (auto& [h, was_dirty] : lost) {
    int survivor = -1;
    for (const auto& [d, rd] : h->dev)
      if (d != g && !plat_->device_failed(d) &&
          rd.state == mem::ReplicaState::kValid) {
        survivor = d;
        break;
      }
    if (survivor >= 0) {
      plat_->cache(survivor).set_dirty(h, true);
      if (check::Checker* c = plat_->checker()) c->on_promote(h, survivor);
      if (obs::Observability* o = plat_->obs()) o->count_fault("promote");
      continue;
    }
    if (replay_pending_.count(h)) continue;
    std::string reason = "no producer recorded";
    if (replay && replay(h, reason)) {
      replay_pending_.insert(h);
      continue;
    }
    std::ostringstream os;
    os << "gpu" << g << " died holding the only copy of tile " << h->id
       << " (version " << h->version << ") and its producer cannot be"
       << " replayed: " << reason;
    throw fault::UnrecoverableDataLoss(os.str());
  }
  // Aborted flushes: resume from a surviving authoritative copy, or fall
  // back to replaying the producer (an eviction flush may have carried the
  // last copy of the bytes).
  for (mem::DataHandle* h : flush_aborted) {
    if (h->host.state != mem::ReplicaState::kInFlight ||
        h->host.fetch_src != mem::kFetchIdle)
      continue;  // already resumed
    const int nsrc = h->dirty_device();
    if (nsrc >= 0 && !plat_->device_failed(nsrc)) {
      flush_from_device(h, nsrc, /*drop_buffer=*/false);
      continue;
    }
    if (replay_pending_.count(h)) continue;  // mark_written re-flushes
    std::string reason = "no producer recorded";
    if (replay && replay(h, reason)) {
      replay_pending_.insert(h);
      continue;
    }
    std::ostringstream os;
    os << "gpu" << g << " died while flushing the only copy of tile "
       << h->id << " (version " << h->version
       << ") to the host and its producer cannot be replayed: " << reason;
    throw fault::UnrecoverableDataLoss(os.str());
  }

  // Pass 3: re-plan every live reception that was fed by g -- actual
  // copies out of g (aborted above via the generation bump) and chains
  // registered on its arrivals.
  for (mem::DataHandle* h : handles) {
    for (auto& [d, rd] : h->dev) {
      if (d == g || plat_->device_failed(d)) continue;
      if (rd.state != mem::ReplicaState::kInFlight || rd.fetch_src != g)
        continue;
      if (!rd.fetch_waiting) {
        // The copy g->d was airborne; its completion is now a dead DMA.
        stats_.transfer_aborts++;
        if (check::Checker* c = plat_->checker())
          c->on_transfer_abort(check::TransferKind::kD2D, h, g, d, 0, 0);
        if (obs::Observability* o = plat_->obs()) {
          std::ostringstream os;
          os << "d2d tile " << h->id << " gpu" << g << "->gpu" << d
             << " cancelled: source died";
          o->on_fault_mark(plat_->engine().now(), "transfer_abort", os.str());
        }
      } else {
        // A waiter chained on g's pending arrival: the wait can never be
        // satisfied, so the re-plan below picks a surviving source.
        stats_.waiter_replans++;
        if (obs::Observability* o = plat_->obs())
          o->count_fault("waiter_replan");
      }
      replan_fetch(h, d);
    }
  }
}

}  // namespace xkb::rt
