// DataManager: the transfer engine, and the home of the paper's two
// contributions.
//
// The scheduler decides *where* a task runs; the DataManager decides *where
// its input tiles come from*.  Source selection lives in a single function,
// `choose_source`, controlled by HeuristicConfig:
//
//   * SourcePolicy::kTopologyAware (Section III-B): among devices holding a
//     valid replica, pick the one with the highest P2P performance rank
//     w.r.t. the destination (2xNVLink > 1xNVLink > PCIe), as returned by
//     the cuDeviceGetP2PAttribute analogue.
//   * SourcePolicy::kFirstValid: the paper's "no topo" ablation -- the first
//     valid device source in index order, regardless of link quality.
//   * SourcePolicy::kSwitchPeer: BLASX's two-level cache -- device-to-device
//     only from a GPU sharing the same PCIe switch, otherwise the host.
//   * SourcePolicy::kHostOnly: libraries that never exploit peer links
//     (Slate, cuBLAS-XT): always fetch from host memory.
//
//   * optimistic_d2d (Section III-C): when no device holds a valid replica
//     yet but one is *in flight* to some GPU, wait for that reception to
//     finish and forward device-to-device, instead of issuing a duplicate
//     host-to-device transfer over the congested PCIe links.  Disabled: fall
//     back to the host as source (duplicate transfer).
//
// Everything else here is the XKaapi software-cache mechanics: MSI-like
// validity, lazy host coherency, eviction flushes, pinning.
//
// Fault recovery (xkb::fault) threads through the same machinery: every
// transfer completion is guarded by the replica's `fetch_gen`, so an
// aborted or superseded copy is a no-op when its callback finally runs;
// transient failures re-plan the fetch after a capped exponential backoff
// in virtual time; and `on_device_failure` purges a dead GPU's replicas,
// promotes a surviving copy of lost dirty data (or asks the runtime to
// replay the producer), and re-plans every in-flight reception that was
// sourced from -- or chained on -- the dead device.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "mem/registry.hpp"
#include "runtime/platform.hpp"
#include "runtime/task.hpp"

namespace xkb::rt {

using SourcePolicy = trace::SourcePolicy;

struct HeuristicConfig {
  SourcePolicy source = SourcePolicy::kTopologyAware;
  bool optimistic_d2d = true;

  /// The paper's full XKBlas configuration.
  static HeuristicConfig xkblas() { return {SourcePolicy::kTopologyAware, true}; }
  /// "XKBlas, no heuristic": optimistic transfer forwarding disabled.
  static HeuristicConfig no_heuristic() {
    return {SourcePolicy::kTopologyAware, false};
  }
  /// "XKBlas, no heuristic, no topo": both contributions disabled.
  static HeuristicConfig no_heuristic_no_topo() {
    return {SourcePolicy::kFirstValid, false};
  }
};

class DataManager {
 public:
  DataManager(Platform& plat, HeuristicConfig cfg) : plat_(&plat), cfg_(cfg) {}

  const HeuristicConfig& config() const { return cfg_; }
  /// The platform's fact counters (the DataManager reports every transfer
  /// through Platform's instrumentation stream).
  const TransferStats& stats() const { return plat_->stats(); }

  /// Make `h` usable on `dev` under `mode`; `done` fires (possibly on the
  /// next engine event) when the replica is ready.  The replica is pinned
  /// until `unpin` -- callers unpin at task completion.
  void acquire(mem::DataHandle* h, int dev, Access mode, sim::Callback done);

  void unpin(mem::DataHandle* h, int dev);

  /// Coherence action after a kernel wrote `h` on `dev`: this replica
  /// becomes the unique valid (dirty) copy; every other replica and the
  /// host copy are invalidated (lazy host coherency).
  void mark_written(mem::DataHandle* h, int dev);

  /// Copy the authoritative replica back to the host (memory_coherent).
  /// `done` fires when the host copy is valid; immediate if already so.
  void flush_to_host(mem::DataHandle* h, sim::Callback done);

  /// Declare that the CPU overwrote the host copy: device replicas are
  /// dropped and the host becomes the sole valid copy.  Callers must order
  /// this after pending accesses (the runtime submits it as a writer task).
  void host_write(mem::DataHandle* h);

  /// Device-failure recovery, called by the runtime after the topology
  /// blacklisted `g`.  For every handle (in `handles` order, so the walk is
  /// deterministic): abort an active host flush sourced at `g`, cancel the
  /// reception into `g`, purge `g`'s replica, promote a surviving copy of a
  /// lost dirty replica -- or ask `replay(h, reason)` to resubmit the
  /// producer, parking dependent fetches until its mark_written -- and
  /// re-plan every live reception that was sourced from `g`.  Throws
  /// UnrecoverableDataLoss when the last copy of a current version died and
  /// the producer is not replayable (`reason` says why).
  void on_device_failure(int g, const std::vector<mem::DataHandle*>& handles,
                         const std::function<bool(mem::DataHandle*,
                                                  std::string&)>& replay);

  /// True while `h`'s current version is gone and a producer replay is in
  /// flight; fetches of `h` park (Replica::fetch_src == kFetchParked) until
  /// the replay's mark_written re-plans them.
  bool replay_pending(const mem::DataHandle* h) const {
    return replay_pending_.count(h) != 0;
  }

 private:
  struct Source {
    trace::SourceKind kind = trace::SourceKind::kHost;
    int dev = -1;
    /// kWaitDevice only: true when the wait is forced (the in-flight copy is
    /// the only one anywhere) rather than chosen by the optimistic heuristic.
    bool forced = false;
  };

  Source choose_source(const mem::DataHandle& h, int dst) const;

  void acquire_write(mem::DataHandle* h, int dev, sim::Callback done);
  void ensure_valid(mem::DataHandle* h, int dev, sim::Callback done);
  /// Source selection + issue for a replica already in kInFlight: runs
  /// choose_source (with the destination masked out, so a re-plan never
  /// picks itself), reports the decision, and issues the copy or registers
  /// the chain.  kNone parks the fetch when a producer replay is pending,
  /// else raises UnrecoverableDataLoss.
  void plan_fetch(mem::DataHandle* h, int dev);
  /// Cancel whatever fetch `dev`'s in-flight replica was waiting on (bumps
  /// fetch_gen) and plan a fresh one.  No-op unless the replica is
  /// kInFlight and not parked-for-replay.
  void replan_fetch(mem::DataHandle* h, int dev);
  /// A transfer into `dev` died in flight: count the abort, cap-check the
  /// retry budget, and schedule the gen-guarded re-plan after backoff.
  void reception_failed(mem::DataHandle* h, int src, int dst);
  /// A host flush from `src` died in flight: like reception_failed for the
  /// host copy; the retry re-reads from whichever device is dirty by then.
  void flush_failed(mem::DataHandle* h, int src, bool drop_buffer);
  /// Walk the wait-chain feeding the in-flight reception at `dev`: true
  /// iff it terminates in an actual transfer from the host or a live
  /// device.  Chaining on an unfed reception (parked, or sourced from a
  /// failed GPU) would deadlock or cycle.
  bool reception_fed(const mem::DataHandle& h, int dev) const;
  void reserve_with_flushes(mem::DataHandle* h, int dev);
  void issue_h2d(mem::DataHandle* h, int dst);
  /// `chained` marks the forwarding leg of a kWaitDevice wait (issued by a
  /// reception-completion waiter) -- observability links it back to the
  /// reception it chained off.
  void issue_p2p(mem::DataHandle* h, int src, int dst, bool chained = false);
  void complete_arrival(mem::DataHandle* h, int dev);
  void flush_from_device(mem::DataHandle* h, int src, bool drop_buffer);

  /// Defer-and-retry on device-memory pressure: returns false when the
  /// reservation could not be made and a retry was scheduled.  Progress
  /// requires the device capacity to cover the prepare window's pinned
  /// working set (window x task footprint + one eviction-flush slot);
  /// below that the deferral loop is bounded and ends in
  /// OutOfDeviceMemory.
  ///
  /// `done` is the caller's completion callback; it is consumed (moved into
  /// the scheduled `(this->*retry)(h, dev, done)` continuation) only on the
  /// deferral path, so on success the caller still owns it.  Taking it by
  /// reference plus a member-pointer retry keeps `done` move-only: the old
  /// shape (a retry lambda capturing `done` by copy) forced a copyable
  /// callback and an extra closure copy per deferral.
  using RetryFn = void (DataManager::*)(mem::DataHandle*, int, sim::Callback);
  bool try_reserve_or_defer(mem::DataHandle* h, int dev, sim::Callback& done,
                            RetryFn retry);

  Platform* plat_;
  HeuristicConfig cfg_;
  std::size_t consecutive_oom_ = 0;
  /// Handles whose current version died with a GPU and whose producer is
  /// being replayed; mark_written clears the entry and re-plans parked
  /// fetches.
  std::unordered_set<const mem::DataHandle*> replay_pending_;
  /// Spare waiter and chain lists, handed back by drained receptions and
  /// flushes and taken by the next ones, so no replica keeps its own
  /// capacity: at most one spare per reception that was ever concurrent.
  std::vector<std::vector<sim::Callback>> spare_waiters_;
  std::vector<std::vector<int>> spare_chains_;
};

}  // namespace xkb::rt
