#include "runtime/data_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>
#include <utility>

#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "util/selfprof.hpp"

namespace xkb::rt {

namespace {

using trace::OpKind;
using trace::SourceKind;

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

/// obs fault-track description of a copy that died in flight: "attempt N"
/// for an injected failure, else why the cancelled copy died.
std::string abort_detail(OpKind k, const mem::DataHandle& h, int src, int dst,
                         int attempts, const char* cause) {
  std::ostringstream os;
  os << (k == OpKind::kHtoD ? "h2d" : k == OpKind::kPtoP ? "d2d" : "d2h")
     << " tile " << h.id << " " << endpoint_name(src) << "->"
     << endpoint_name(dst) << " ";
  if (cause)
    os << "cancelled: " << cause;
  else
    os << "attempt " << attempts;
  return os.str();
}

/// Append `x` to a replica's waiter or chain list.  A list without storage
/// first takes a spare, so a steady-state reception allocates nothing.
template <class T>
void attach(std::vector<T>& list, std::vector<std::vector<T>>& spares, T x) {
  if (list.capacity() == 0 && !spares.empty()) {
    list = std::move(spares.back());
    spares.pop_back();
  }
  list.push_back(std::move(x));
}

/// Hand a list detached from its replica, its entries consumed, back as a
/// spare.  Detaching before running the entries matters: a waiter may
/// queue a new one on the same replica (an eviction and a refetch).
template <class T>
void recycle(std::vector<T>&& list, std::vector<std::vector<T>>& spares) {
  list.clear();
  if (list.capacity() != 0) spares.push_back(std::move(list));
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
    plat_->report_oom_deferral();
    plat_->engine().schedule_after(
        50e-6, [this, h, dev, retry, done = std::move(done)]() mutable {
          (this->*retry)(h, dev, std::move(done));
        });
    return false;
  }
}

void DataManager::unpin(mem::DataHandle* h, int dev) {
  mem::Replica& r = h->dev[dev];
  assert(r.pins > 0);
  r.pins--;
  // The cache stamps a reservation as a use, which keeps the victim order
  // only while the replica cannot be a victim: its first touch (arrival or
  // write) must come before its last pin goes.
  assert(!(r.pins == 0 && r.resident && r.touch_pending) &&
         "a reserved replica lost its last pin before its first touch");
}

void DataManager::ensure_valid(mem::DataHandle* h, int dev,
                               sim::Callback done) {
  mem::Replica& r = h->dev[dev];
  if (r.state == mem::ReplicaState::kValid) {
    plat_->report_cache_ref(dev, obs::CacheRef::kHit);
    plat_->cache(dev).touch(h, plat_->engine().now());
    plat_->engine().schedule_after(0.0, std::move(done));
    return;
  }
  if (r.state == mem::ReplicaState::kInFlight) {
    plat_->report_cache_ref(dev, obs::CacheRef::kInFlightHit);
    attach(r.waiters, spare_waiters_, std::move(done));
    return;
  }

  if (!try_reserve_or_defer(h, dev, done, &DataManager::ensure_valid)) return;

  plat_->report_cache_ref(dev, obs::CacheRef::kMiss);
  if (plat_->options().functional && h->dev_buf.empty())
    h->dev_buf.resize(plat_->num_gpus());
  if (plat_->options().functional && h->dev_buf[dev].size() != h->bytes())
    h->dev_buf[dev].resize(h->bytes());
  r.state = mem::ReplicaState::kInFlight;
  attach(r.waiters, spare_waiters_, std::move(done));
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

  if (s.kind == SourceKind::kNone && !replay_pending_.count(h)) {
    // No copy of the bytes exists anywhere, and no producer replay is
    // rebuilding the tile that a parked fetch could wait for.
    std::ostringstream os;
    os << "no copy of tile " << h->id << " (version " << h->version
       << ") exists anywhere and no replay is pending: fetch to gpu" << dev
       << " cannot be satisfied";
    throw fault::UnrecoverableDataLoss(os.str());
  }
  plat_->report_source(*h, dev, s.kind, s.dev, s.forced);

  switch (s.kind) {
    case SourceKind::kHost:
      issue_h2d(h, dev);
      break;
    case SourceKind::kDevice:
      h->dev[s.dev].pins++;  // keep the source alive during the copy
      issue_p2p(h, s.dev, dev);
      break;
    case SourceKind::kWaitDevice: {
      // Chain on the in-flight reception (the report above counted the
      // wait: chosen by the optimistic heuristic, or forced by coherence).
      const int g = s.dev;
      h->dev[g].pins++;  // survive until the forwarding copy completes
      r.eta = h->dev[g].eta;  // rough: refined when the copy is issued
      r.fetch_src = g;
      r.fetch_waiting = true;
      attach(h->dev[g].chained_dsts, spare_chains_, dev);
      break;
    }
    case SourceKind::kWaitHost:
      r.fetch_src = mem::kFetchHost;
      r.fetch_waiting = true;
      attach(h->host.chained_dsts, spare_chains_, dev);
      break;
    case SourceKind::kNone:
      // Park until the pending replay's mark_written re-plans.
      r.fetch_src = mem::kFetchParked;
      r.fetch_waiting = false;
      break;
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

XKB_HOT DataManager::Source DataManager::choose_source(
    const mem::DataHandle& h, int dst) const {
  const auto& topo = plat_->topology();
  // One ascending walk over the replicas: the order of valid_devices(), so
  // each policy's pick (the lowest device id among the best rank, the first
  // valid, the first switch peer) is what a scan of that list picks.  Failed
  // devices are filtered defensively: mid-recovery, a handle later in the
  // purge order may still show a "valid" replica on the dead GPU.
  int first_valid = -1;
  int pick = -1;  // the policy's device pick: best rank, or a switch peer
  int pick_rank = 0;
  for (const auto& [g, r] : h.dev) {
    if (r.state != mem::ReplicaState::kValid || plat_->device_failed(g))
      continue;
    if (first_valid < 0) first_valid = g;
    if (cfg_.source == SourcePolicy::kTopologyAware) {
      const int rank = topo.p2p_perf_rank(g, dst);
      if (pick < 0 || rank > pick_rank) {
        pick = g;
        pick_rank = rank;
      }
    } else if (cfg_.source == SourcePolicy::kSwitchPeer && pick < 0 &&
               topo.host_link_of(g) == topo.host_link_of(dst)) {
      pick = g;
    }
  }
  // The reception to chain on: live, and fed -- its wait-chain terminates in
  // an actual transfer (chaining on a parked or orphaned reception would
  // deadlock, and mutual chains would cycle).  Highest rank, lowest id.
  auto best_flying = [&] {
    int best = -1, best_rank = 0;
    for (const auto& [g, r] : h.dev) {
      if (r.state != mem::ReplicaState::kInFlight || g == dst ||
          plat_->device_failed(g) || !reception_fed(h, g))
        continue;
      const int rank = topo.p2p_perf_rank(g, dst);
      if (best < 0 || rank > best_rank) {
        best = g;
        best_rank = rank;
      }
    }
    return std::pair<int, int>{best, best_rank};
  };

  switch (cfg_.source) {
    case SourcePolicy::kTopologyAware:
      if (pick >= 0 && pick_rank > 0) return {SourceKind::kDevice, pick};
      break;  // no peer path: fall through to the host
    case SourcePolicy::kFirstValid:
      if (first_valid >= 0 && topo.p2p_perf_rank(first_valid, dst) > 0)
        return {SourceKind::kDevice, first_valid};
      break;
    case SourcePolicy::kSwitchPeer:
      if (pick >= 0) return {SourceKind::kDevice, pick};
      break;  // no switch peer holds it: use the host
    case SourcePolicy::kHostOnly:
      break;
  }

  if (h.host.state == mem::ReplicaState::kValid) {
    // Optimistic heuristic: a duplicate H2D can be avoided by waiting for an
    // ongoing reception on a peer GPU and forwarding from there.
    if (cfg_.optimistic_d2d) {
      const auto [best, rank] = best_flying();
      if (best >= 0 && rank > 0) return {SourceKind::kWaitDevice, best};
    }
    return {SourceKind::kHost, -1};
  }

  // Host copy not valid.  If some device holds the data but has no peer path
  // (or the policy refused it), we still must produce the bytes: fall back to
  // the authoritative device copy.
  if (first_valid >= 0) return {SourceKind::kDevice, first_valid};

  if (h.host.state == mem::ReplicaState::kInFlight)
    return {SourceKind::kWaitHost, -1};

  // Forced wait (not a heuristic): the only copy is in flight.
  const int best = best_flying().first;
  if (best < 0) return {SourceKind::kNone, -1};
  return {SourceKind::kWaitDevice, best, /*forced=*/true};
}

void DataManager::reserve_with_flushes(mem::DataHandle* h, int dev) {
  auto res = plat_->cache(dev).reserve(h, plat_->engine().now());
  for (mem::DataHandle* v : res.clean_evicted)
    plat_->report_evict(*v, dev, /*dirty=*/false);
  for (mem::DataHandle* v : res.dirty_evicted) {
    plat_->report_evict(*v, dev, /*dirty=*/true);
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
  auto iv = plat_->transfer(OpKind::kHtoD, *h, -1, dst, /*chained=*/false,
                            [this, h, dst, gen, fail] {
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
  auto iv = plat_->transfer(OpKind::kPtoP, *h, src, dst, chained,
                            [this, h, src, dst, gen, fail] {
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
  const OpKind k = src >= 0 ? OpKind::kPtoP : OpKind::kHtoD;
  std::string detail = abort_detail(k, *h, src, dst, attempts, nullptr);
  if (attempts > rp.max_transfer_retries) {
    plat_->report_fault("transfer_abort", std::move(detail));
    std::ostringstream os;
    os << "transfer of tile " << h->id << " to gpu" << dst << " from "
       << endpoint_name(src) << " failed " << attempts
       << " times (retry cap " << rp.max_transfer_retries
       << "): giving up";
    throw fault::TransferRetriesExhausted(os.str());
  }
  plat_->report_abort(k, *h, src, dst, attempts, rp.max_transfer_retries,
                      std::move(detail));
  r.fetch_gen++;
  r.fetch_src = mem::kFetchIdle;
  r.fetch_waiting = false;
  const std::uint32_t gen = r.fetch_gen;
  const double delay = rp.backoff_for(attempts);
  auto retry = [this, h, dst, gen] {
    mem::Replica& rr = h->dev[dst];
    if (rr.fetch_gen != gen || rr.state != mem::ReplicaState::kInFlight)
      return;  // superseded while backing off (e.g. device-failure re-plan)
    plat_->report_retry();
    plan_fetch(h, dst);
  };
  XKB_ASSERT_INLINE_CAPTURE(retry);
  plat_->engine().schedule_after(delay, std::move(retry));
}

XKB_HOT void DataManager::complete_arrival(mem::DataHandle* h, int dev) {
  mem::Replica& r = h->dev[dev];
  assert(r.state == mem::ReplicaState::kInFlight);
  r.state = mem::ReplicaState::kValid;
  r.fetch_src = mem::kFetchIdle;
  r.fetch_waiting = false;
  r.fetch_attempts = 0;
  plat_->report_arrival(*h, dev);
  plat_->cache(dev).touch(h, plat_->engine().now());
  // Forward to every reception chained on this arrival (Section III-C).
  // Chains cancelled by recovery removed themselves from the list, so
  // whatever is left is still waiting on us.
  std::vector<int> chains = std::exchange(r.chained_dsts, {});
  for (int d : chains) {
    mem::Replica& rd = h->dev[d];
    if (rd.state == mem::ReplicaState::kInFlight && rd.fetch_waiting &&
        rd.fetch_src == dev) {
      issue_p2p(h, dev, d, /*chained=*/true);
    } else {
      unpin(h, dev);  // stale entry: drop its registration pin
    }
  }
  recycle(std::move(chains), spare_chains_);
  std::vector<sim::Callback> waiters = std::exchange(r.waiters, {});
  for (auto& w : waiters) w();
  recycle(std::move(waiters), spare_waiters_);
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
  plat_->report_written(*h, dev);
  replay_pending_.erase(h);
  if (was_parked) {
    // The replay landed on the very device a parked fetch was promised to:
    // the write itself satisfies the promise.
    std::vector<sim::Callback> waiters = std::exchange(r.waiters, {});
    for (auto& w : waiters) w();
    recycle(std::move(waiters), spare_waiters_);
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
  plat_->report_host_write(*h);
  replay_pending_.erase(h);
  for (int g : parked) replan_fetch(h, g);
  // Receptions chained on a host flush promise: the CPU write supersedes
  // the flush, so feed them from the (now valid) host copy directly.
  std::vector<int> chains = std::exchange(h->host.chained_dsts, {});
  for (int d : chains) {
    mem::Replica& rd = h->dev[d];
    if (rd.state == mem::ReplicaState::kInFlight && rd.fetch_waiting &&
        rd.fetch_src == mem::kFetchHost)
      issue_h2d(h, d);
  }
  recycle(std::move(chains), spare_chains_);
}

void DataManager::flush_to_host(mem::DataHandle* h, sim::Callback done) {
  if (h->host.state == mem::ReplicaState::kValid) {
    plat_->engine().schedule_after(0.0, std::move(done));
    return;
  }
  if (h->host.state == mem::ReplicaState::kInFlight) {
    attach(h->host.waiters, spare_waiters_, std::move(done));
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
    attach(h->host.waiters, spare_waiters_, std::move(done));
    return;
  }
  attach(h->host.waiters, spare_waiters_, std::move(done));
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
  const std::uint64_t v0 = h->version;
  plat_->transfer(OpKind::kDtoH, *h, src, -1, /*chained=*/false,
                  [this, h, src, drop_buffer, v0, gen, fail] {
    // The source pin is released even when this flush was superseded by a
    // newer one -- unless the device died, which zeroed its pin counts.
    if (!plat_->device_failed(src)) h->dev[src].pins--;
    if (h->host.fetch_gen != gen) return;  // aborted or superseded
    h->host.fetch_src = mem::kFetchIdle;
    if (fail) {
      flush_failed(h, src, drop_buffer);
      return;
    }
    plat_->report_flush_done(*h, src, /*stale=*/h->version != v0, v0);

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
    std::vector<sim::Callback> waiters = std::exchange(h->host.waiters, {});
    for (auto& w : waiters) w();
    recycle(std::move(waiters), spare_waiters_);
    // Receptions that chained on this flush (kWaitHost): fetch them now.
    std::vector<int> chains = std::exchange(h->host.chained_dsts, {});
    for (int d : chains) {
      mem::Replica& rd = h->dev[d];
      if (rd.state == mem::ReplicaState::kInFlight && rd.fetch_waiting &&
          rd.fetch_src == mem::kFetchHost)
        issue_h2d(h, d);
    }
    recycle(std::move(chains), spare_chains_);
  });
}

void DataManager::flush_failed(mem::DataHandle* h, int src, bool drop_buffer) {
  fault::Injector* f = plat_->fault();
  assert(f && "flush failure without an injector");
  h->host.fetch_attempts++;
  const fault::RetryPolicy& rp = f->retry();
  const int attempts = h->host.fetch_attempts;
  std::string detail =
      abort_detail(OpKind::kDtoH, *h, src, -1, attempts, nullptr);
  if (attempts > rp.max_transfer_retries) {
    plat_->report_fault("transfer_abort", std::move(detail));
    std::ostringstream os;
    os << "flush of tile " << h->id << " from gpu" << src << " to the host"
       << " failed " << attempts << " times (retry cap "
       << rp.max_transfer_retries << "): giving up";
    throw fault::TransferRetriesExhausted(os.str());
  }
  plat_->report_abort(OpKind::kDtoH, *h, src, -1, attempts,
                      rp.max_transfer_retries, std::move(detail));
  h->host.fetch_gen++;
  const std::uint32_t gen = h->host.fetch_gen;
  const double delay = rp.backoff_for(attempts);
  auto retry = [this, h, src, drop_buffer, gen] {
    if (h->host.fetch_gen != gen ||
        h->host.state != mem::ReplicaState::kInFlight)
      return;  // superseded (device failure re-planned, or CPU overwrote)
    plat_->report_retry();
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
        const OpKind k = r.fetch_src >= 0 ? OpKind::kPtoP : OpKind::kHtoD;
        plat_->report_abort(
            k, *h, r.fetch_src, g, 0, 0,
            abort_detail(k, *h, r.fetch_src, g, 0, "destination died"));
        if (r.fetch_src >= 0 && !plat_->device_failed(r.fetch_src))
          unpin(h, r.fetch_src);
      }
    }
    // A host flush reading from g dies with it.
    if (h->host.state == mem::ReplicaState::kInFlight &&
        h->host.fetch_src == g) {
      plat_->report_abort(
          OpKind::kDtoH, *h, g, -1, 0, 0,
          abort_detail(OpKind::kDtoH, *h, g, -1, 0, "source died"));
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
    recycle(std::exchange(r.waiters, {}), spare_waiters_);
    // Dependents re-plan in pass 3.
    recycle(std::exchange(r.chained_dsts, {}), spare_chains_);
    r.fetch_gen++;  // cancel any airborne copy toward g
    r.fetch_src = mem::kFetchIdle;
    r.fetch_waiting = false;
    r.fetch_attempts = 0;
    r.eta = 0.0;
    if (was_valid) {
      plat_->report_replica_lost(*h, g, was_dirty);
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
      plat_->report_promote(*h, survivor);
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
        plat_->report_abort(
            OpKind::kPtoP, *h, g, d, 0, 0,
            abort_detail(OpKind::kPtoP, *h, g, d, 0, "source died"));
      } else {
        // A waiter chained on g's pending arrival: the wait can never be
        // satisfied, so the re-plan below picks a surviving source.
        plat_->report_waiter_replan();
      }
      replan_fetch(h, d);
    }
  }
}

}  // namespace xkb::rt
