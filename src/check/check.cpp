#include "check/check.hpp"

#include <algorithm>
#include <bit>
#include <functional>

namespace xkb::check {

namespace {

using trace::Access;
using trace::OpKind;
using trace::SourceKind;
using trace::SourcePolicy;

// Event tags folded into the FNV stream hash (stable across builds).
enum : std::uint64_t {
  kTagSubmit = 0x51,
  kTagKernel = 0x52,
  kTagFinish = 0x53,
  kTagComplete = 0x54,
  kTagSource = 0x55,
  kTagTransfer = 0x56,
  kTagArrival = 0x57,
  kTagWritten = 0x58,
  kTagHostWrite = 0x59,
  kTagFlushIssue = 0x5a,
  kTagFlushDone = 0x5b,
  kTagEvict = 0x5c,
  kTagEngine = 0x5d,
  kTagAbort = 0x5e,
  kTagDevFail = 0x5f,
  kTagLost = 0x60,
  kTagPromote = 0x61,
  kTagReplay = 0x62,
  kTagRemap = 0x63,
};

}  // namespace

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kRace: return "race";
    case ViolationKind::kCoherence: return "coherence";
    case ViolationKind::kStats: return "stats";
    case ViolationKind::kProgress: return "progress";
  }
  return "?";
}

Checker::Checker(const CheckConfig& cfg, int num_gpus, SourcePolicy policy,
                 bool optimistic_d2d)
    : cfg_(cfg),
      gpus_(num_gpus),
      policy_(policy),
      optimistic_(optimistic_d2d) {}

Checker::Shadow& Checker::shadow(const mem::DataHandle* h) {
  auto it = shadows_.find(h);
  if (it != shadows_.end()) return it->second;
  Shadow s;
  const std::size_t n = static_cast<std::size_t>(gpus_);
  s.dev_version.assign(n, Shadow::kNoVersion);
  s.in_version.assign(n, Shadow::kNoVersion);
  s.in_vc.resize(n);
  s.arrival_vc.resize(n);
  // User data starts on the host (mem::Registry interns host-valid handles);
  // version 0 is the initial host content.
  s.host_version = 0;
  return shadows_.emplace(h, std::move(s)).first->second;
}

Checker::TaskInfo* Checker::task(std::uint64_t id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

VectorClock& Checker::lane_clock(std::size_t lane) {
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  return lanes_[lane];
}

void Checker::violation(ViolationKind kind, std::string msg) {
  ++total_violations_;
  if (violations_.size() < cfg_.max_recorded)
    violations_.push_back({kind, std::move(msg)});
}

void Checker::fold_time(sim::Time t) {
  fold(std::bit_cast<std::uint64_t>(t));
}

// ---------------------------------------------------------------------------
// Task-graph / execution events
// ---------------------------------------------------------------------------

void Checker::on_submit(
    std::uint64_t id, std::string label,
    const std::vector<std::pair<const mem::DataHandle*, Access>>& accesses,
    std::vector<std::uint64_t> preds) {
  TaskInfo ti;
  ti.label = std::move(label);
  ti.accesses.reserve(accesses.size());
  fold(kTagSubmit);
  fold(id);
  for (const auto& [h, m] : accesses) {
    ti.accesses.push_back({h, m});
    shadow(h);  // materialize shadow state on first sight
    fold(h->id);
    fold(static_cast<std::uint64_t>(m));
  }
  // The runtime now sorts predecessors by task id (never by pointer), so
  // the incoming order is already reproducible; keep folding in sorted
  // order anyway so the hash never depends on any caller's ordering.
  std::sort(preds.begin(), preds.end());
  for (std::uint64_t p : preds) fold(p);
  ti.preds = std::move(preds);
  ti.submit_vc = completed_vc_;
  tasks_.emplace(id, std::move(ti));
  task_order_.push_back(id);
}

void Checker::stamp(std::uint64_t id, TaskInfo& t, std::size_t lane) {
  t.vc.join(t.submit_vc);
  for (std::uint64_t p : t.preds) {
    TaskInfo* pt = task(p);
    // In a healthy run every predecessor completed before this task became
    // ready; an incomplete predecessor here means the dependence edge was
    // lost (fault injection) and the race detector below will flag the
    // unordered accesses.
    if (pt && pt->completed) t.vc.join(pt->vc);
  }
  VectorClock& lc = lane_clock(lane);
  t.vc.join(lc);
  t.vc.tick(lane);
  lc = t.vc;
  t.vc_set = true;
  (void)id;
}

void Checker::check_reads(std::uint64_t id, TaskInfo& t) {
  if (!cfg_.races) return;
  for (const AccessRec& a : t.accesses) {
    if (a.mode == Access::kW) continue;
    Shadow& s = shadow(a.handle);
    if (s.write_task != 0 && s.write_task != id && !s.write_vc.leq(t.vc))
      violation(ViolationKind::kRace,
                "race: read of tile " + std::to_string(a.handle->id) +
                    " by task " + std::to_string(id) + " '" + t.label +
                    "' is not ordered after write by task " +
                    std::to_string(s.write_task) + " '" + s.write_label +
                    "' (reader clock " + t.vc.to_string() +
                    ", writer clock " + s.write_vc.to_string() + ")");
    s.readers.push_back({id, t.vc});
  }
}

void Checker::record_writes(std::uint64_t id, TaskInfo& t, int dev,
                            sim::Time /*now*/) {
  for (const AccessRec& a : t.accesses) {
    if (a.mode == Access::kR) continue;
    Shadow& s = shadow(a.handle);
    if (cfg_.races) {
      if (s.write_task != 0 && s.write_task != id && !s.write_vc.leq(t.vc))
        violation(ViolationKind::kRace,
                  "race: write of tile " + std::to_string(a.handle->id) +
                      " by task " + std::to_string(id) + " '" + t.label +
                      "' is not ordered after write by task " +
                      std::to_string(s.write_task) + " '" + s.write_label +
                      "'");
      for (const ReaderRec& r : s.readers) {
        if (r.task == id) continue;
        if (!r.vc.leq(t.vc)) {
          const TaskInfo* rt = task(r.task);
          violation(ViolationKind::kRace,
                    "race: write of tile " + std::to_string(a.handle->id) +
                        " by task " + std::to_string(id) + " '" + t.label +
                        "' is not ordered after read by task " +
                        std::to_string(r.task) + " '" +
                        (rt ? rt->label : "?") + "'");
        }
      }
    }
    s.write_vc = t.vc;
    s.write_task = id;
    s.write_label = t.label;
    s.readers.clear();
    if (dev < 0) s.host_vc.join(t.vc);  // host-side writer (host_write)
  }
}

void Checker::on_kernel_issue(std::uint64_t id, int dev, sim::Time start,
                              sim::Time end) {
  fold(kTagKernel);
  fold(id);
  fold(static_cast<std::uint64_t>(dev));
  fold_time(start);
  fold_time(end);
  TaskInfo* t = task(id);
  if (!t) return;
  t->device = dev;
  if (cfg_.coherence && device_failed(dev))
    violation(ViolationKind::kCoherence,
              "kernel of task " + std::to_string(id) + " '" + t->label +
                  "' issued on blacklisted GPU " + std::to_string(dev));
  // Import the happens-before edges carried by the operand receptions, then
  // verify freshness: a kernel must start with every read operand valid on
  // its device and holding the latest version.
  for (const AccessRec& a : t->accesses) {
    if (a.mode == Access::kW) continue;
    Shadow& s = shadow(a.handle);
    t->vc.join(s.arrival_vc[static_cast<std::size_t>(dev)]);
    if (cfg_.coherence) {
      const mem::Replica& r = a.handle->dev[static_cast<std::size_t>(dev)];
      if (r.state != mem::ReplicaState::kValid)
        violation(ViolationKind::kCoherence,
                  "kernel of task " + std::to_string(id) + " '" + t->label +
                      "' started on GPU " + std::to_string(dev) +
                      " with operand tile " + std::to_string(a.handle->id) +
                      " in state '" + mem::to_string(r.state) + "'");
      else if (s.dev_version[static_cast<std::size_t>(dev)] != s.version)
        violation(ViolationKind::kCoherence,
                  "stale read: task " + std::to_string(id) + " '" + t->label +
                      "' on GPU " + std::to_string(dev) + " reads tile " +
                      std::to_string(a.handle->id) + " at version " +
                      std::to_string(s.dev_version[static_cast<std::size_t>(
                          dev)]) +
                      " but the latest write is version " +
                      std::to_string(s.version));
    }
  }
  stamp(id, *t, lane_kernel(dev));
  check_reads(id, *t);
}

void Checker::on_task_finish(std::uint64_t id, int dev, sim::Time now) {
  fold(kTagFinish);
  fold(id);
  fold_time(now);
  TaskInfo* t = task(id);
  if (!t) return;
  t->finished = true;
  if (!t->vc_set) {
    // Kernel-less placement task (e.g. the 2D block-cyclic distribution):
    // no stream lane, so order it on the device's virtual lane.  Its reads
    // still carry the arrival edges and are checked like kernel reads.
    for (const AccessRec& a : t->accesses) {
      if (a.mode == Access::kW) continue;
      Shadow& s = shadow(a.handle);
      t->vc.join(s.arrival_vc[static_cast<std::size_t>(dev)]);
      if (cfg_.coherence &&
          s.dev_version[static_cast<std::size_t>(dev)] != s.version)
        violation(ViolationKind::kCoherence,
                  "stale read: placement task " + std::to_string(id) + " '" +
                      t->label + "' on GPU " + std::to_string(dev) +
                      " observes tile " + std::to_string(a.handle->id) +
                      " at version " +
                      std::to_string(
                          s.dev_version[static_cast<std::size_t>(dev)]) +
                      ", latest is " + std::to_string(s.version));
    }
    stamp(id, *t, lane_virtual(dev));
    check_reads(id, *t);
  }
  record_writes(id, *t, dev, now);
}

void Checker::on_task_complete(std::uint64_t id, sim::Time now) {
  fold(kTagComplete);
  fold(id);
  fold_time(now);
  TaskInfo* t = task(id);
  if (!t) return;
  if (!t->vc_set) {
    // Host-side task (memory_coherent / host_write): executes on the host
    // lane; reads carry the host copy's happens-before edges.
    for (const AccessRec& a : t->accesses) {
      if (a.mode == Access::kW) continue;
      Shadow& s = shadow(a.handle);
      t->vc.join(s.host_vc);
      if (cfg_.coherence && s.host_version != s.version)
        violation(ViolationKind::kCoherence,
                  "host task " + std::to_string(id) + " '" + t->label +
                      "' observes tile " + std::to_string(a.handle->id) +
                      " at host version " + std::to_string(s.host_version) +
                      ", latest is " + std::to_string(s.version));
    }
    stamp(id, *t, /*host lane=*/0);
    check_reads(id, *t);
    record_writes(id, *t, /*dev=*/-1, now);
  }
  t->completed = true;
  if (t->vc_set) completed_vc_.join(t->vc);
}

// ---------------------------------------------------------------------------
// Replica-protocol events
// ---------------------------------------------------------------------------

void Checker::on_source_choice(const mem::DataHandle* h, int dst,
                               SourceKind kind, int src, bool forced) {
  fold(kTagSource);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dst));
  fold(static_cast<std::uint64_t>(kind));
  fold(static_cast<std::uint64_t>(src) + 1);
  if (!cfg_.coherence) return;
  const bool host_valid = h->host.state == mem::ReplicaState::kValid;
  Shadow& s = shadow(h);
  switch (kind) {
    case SourceKind::kHost:
      if (!host_valid)
        violation(ViolationKind::kCoherence,
                  "choose_source picked the host for tile " +
                      std::to_string(h->id) + " -> GPU " +
                      std::to_string(dst) + " but the host copy is not valid");
      break;
    case SourceKind::kDevice: {
      const mem::Replica& r = h->dev[static_cast<std::size_t>(src)];
      if (device_failed(src))
        violation(ViolationKind::kCoherence,
                  "choose_source picked failed GPU " + std::to_string(src) +
                      " as source for tile " + std::to_string(h->id) +
                      " -> GPU " + std::to_string(dst));
      if (r.state != mem::ReplicaState::kValid)
        violation(ViolationKind::kCoherence,
                  "choose_source picked invalid replica on GPU " +
                      std::to_string(src) + " for tile " +
                      std::to_string(h->id) + " -> GPU " +
                      std::to_string(dst));
      else if (s.dev_version[static_cast<std::size_t>(src)] != s.version)
        violation(ViolationKind::kCoherence,
                  "choose_source picked stale replica on GPU " +
                      std::to_string(src) + " for tile " +
                      std::to_string(h->id) + " (version " +
                      std::to_string(
                          s.dev_version[static_cast<std::size_t>(src)]) +
                      ", latest " + std::to_string(s.version) + ")");
      if (policy_ == SourcePolicy::kHostOnly && host_valid)
        violation(ViolationKind::kCoherence,
                  "host-only source policy chose a device source for tile " +
                      std::to_string(h->id) +
                      " although the host copy is valid");
      break;
    }
    case SourceKind::kWaitDevice: {
      const mem::Replica& r = h->dev[static_cast<std::size_t>(src)];
      if (device_failed(src))
        violation(ViolationKind::kCoherence,
                  "choose_source chained tile " + std::to_string(h->id) +
                      " on a reception at failed GPU " + std::to_string(src));
      if (r.state != mem::ReplicaState::kInFlight)
        violation(ViolationKind::kCoherence,
                  "optimistic forwarding chained on GPU " +
                      std::to_string(src) + " for tile " +
                      std::to_string(h->id) +
                      " but no reception is in flight there");
      if (!forced) {
        if (!optimistic_)
          violation(ViolationKind::kCoherence,
                    "optimistic wait chosen for tile " +
                        std::to_string(h->id) +
                        " although optimistic_d2d is disabled");
        if (!host_valid)
          violation(ViolationKind::kCoherence,
                    "optimistic wait for tile " + std::to_string(h->id) +
                        " marked as chosen, but the host copy is invalid "
                        "(it should be a forced wait)");
      } else {
        if (host_valid)
          violation(ViolationKind::kCoherence,
                    "forced wait for tile " + std::to_string(h->id) +
                        " although a valid host copy exists");
      }
      break;
    }
    case SourceKind::kWaitHost:
      if (h->host.state != mem::ReplicaState::kInFlight)
        violation(ViolationKind::kCoherence,
                  "waiting on a host reception for tile " +
                      std::to_string(h->id) +
                      " but the host copy is not in flight");
      break;
    case SourceKind::kNone:
      break;  // a parked fetch issues nothing
  }
}

void Checker::on_transfer_issue(OpKind k, const mem::DataHandle* h, int src,
                                int dst, sim::Time start, sim::Time end) {
  if (k == OpKind::kDtoH) {
    host_flush_issue(h, src);
    return;
  }
  fold(kTagTransfer);
  fold(static_cast<std::uint64_t>(k));
  fold(h->id);
  fold(static_cast<std::uint64_t>(src) + 1);
  fold(static_cast<std::uint64_t>(dst));
  fold_time(start);
  fold_time(end);
  Shadow& s = shadow(h);
  const auto d = static_cast<std::size_t>(dst);
  if (cfg_.coherence && device_failed(dst))
    violation(ViolationKind::kCoherence,
              "transfer of tile " + std::to_string(h->id) +
                  " issued towards blacklisted GPU " + std::to_string(dst));
  if (cfg_.coherence && k == OpKind::kPtoP && device_failed(src))
    violation(ViolationKind::kCoherence,
              "D2D of tile " + std::to_string(h->id) +
                  " issued from blacklisted GPU " + std::to_string(src));
  if (k == OpKind::kHtoD) {
    if (cfg_.coherence && h->host.state != mem::ReplicaState::kValid)
      violation(ViolationKind::kCoherence,
                "H2D issued for tile " + std::to_string(h->id) + " -> GPU " +
                    std::to_string(dst) + " with an invalid host copy");
    if (cfg_.coherence && s.host_version != s.version)
      violation(ViolationKind::kCoherence,
                "H2D issued for tile " + std::to_string(h->id) +
                    " carries stale host version " +
                    std::to_string(s.host_version) + " (latest " +
                    std::to_string(s.version) + ")");
    s.in_version[d] = s.host_version;
    s.in_vc[d] = s.host_vc;
  } else {
    const auto sd = static_cast<std::size_t>(src);
    if (cfg_.coherence &&
        h->dev[sd].state != mem::ReplicaState::kValid)
      violation(ViolationKind::kCoherence,
                "D2D issued for tile " + std::to_string(h->id) + " from GPU " +
                    std::to_string(src) + " whose replica is not valid");
    if (cfg_.coherence && s.dev_version[sd] != s.version)
      violation(ViolationKind::kCoherence,
                "D2D issued for tile " + std::to_string(h->id) + " from GPU " +
                    std::to_string(src) + " holding stale version " +
                    std::to_string(s.dev_version[sd]) + " (latest " +
                    std::to_string(s.version) + ")");
    s.in_version[d] = s.dev_version[sd];
    s.in_vc[d] = s.arrival_vc[sd];
    s.in_vc[d].join(s.write_vc);
  }
}

void Checker::on_arrival(const mem::DataHandle* h, int dev, sim::Time now) {
  fold(kTagArrival);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  fold_time(now);
  ++arrivals_;
  Shadow& s = shadow(h);
  const auto d = static_cast<std::size_t>(dev);
  if (cfg_.coherence && s.in_version[d] == Shadow::kNoVersion)
    violation(ViolationKind::kCoherence,
              "arrival of tile " + std::to_string(h->id) + " on GPU " +
                  std::to_string(dev) + " without a matching transfer issue");
  else if (cfg_.coherence && s.in_version[d] != s.version)
    violation(ViolationKind::kCoherence,
              "arrival delivered stale version " +
                  std::to_string(s.in_version[d]) + " of tile " +
                  std::to_string(h->id) + " to GPU " + std::to_string(dev) +
                  " (latest " + std::to_string(s.version) + ")");
  s.dev_version[d] = s.in_version[d];
  s.in_version[d] = Shadow::kNoVersion;
  s.arrival_vc[d].join(s.in_vc[d]);
}

void Checker::on_mark_written(const mem::DataHandle* h, int dev,
                              sim::Time now) {
  fold(kTagWritten);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  fold_time(now);
  Shadow& s = shadow(h);
  ++s.version;
  for (std::size_t g = 0; g < s.dev_version.size(); ++g)
    if (g != static_cast<std::size_t>(dev)) s.dev_version[g] = Shadow::kNoVersion;
  s.dev_version[static_cast<std::size_t>(dev)] = s.version;
  if (!cfg_.coherence) return;
  // At most one dirty replica, and it must be the writer's.
  int dirty_count = 0;
  for (const auto& [g, r] : h->dev) {
    if (r.dirty) ++dirty_count;
    if (g != dev && r.state == mem::ReplicaState::kValid)
      violation(ViolationKind::kCoherence,
                "write to tile " + std::to_string(h->id) + " on GPU " +
                    std::to_string(dev) +
                    " left a valid peer replica on GPU " + std::to_string(g));
  }
  if (dirty_count != 1 || !h->dev[dev].dirty)
    violation(ViolationKind::kCoherence,
              "tile " + std::to_string(h->id) + " has " +
                  std::to_string(dirty_count) +
                  " dirty replicas after a write on GPU " +
                  std::to_string(dev) + " (expected exactly the writer's)");
  if (h->host.state == mem::ReplicaState::kValid)
    violation(ViolationKind::kCoherence,
              "host copy of tile " + std::to_string(h->id) +
                  " still valid after a device write (lazy coherency "
                  "requires invalidation)");
}

void Checker::on_host_write(const mem::DataHandle* h) {
  fold(kTagHostWrite);
  fold(h->id);
  Shadow& s = shadow(h);
  ++s.version;
  s.host_version = s.version;
  for (auto& v : s.dev_version) v = Shadow::kNoVersion;
  if (!cfg_.coherence) return;
  for (const auto& [g, r] : h->dev)
    if (r.state != mem::ReplicaState::kInvalid)
      violation(ViolationKind::kCoherence,
                "host write to tile " + std::to_string(h->id) +
                    " left a non-invalid replica on GPU " + std::to_string(g));
}

void Checker::host_flush_issue(const mem::DataHandle* h, int src) {
  const std::uint64_t version = h->version;
  fold(kTagFlushIssue);
  fold(h->id);
  fold(static_cast<std::uint64_t>(src));
  fold(version);
  Shadow& s = shadow(h);
  s.d2h_inflight = true;
  if (cfg_.coherence && device_failed(src))
    violation(ViolationKind::kCoherence,
              "host flush of tile " + std::to_string(h->id) +
                  " issued from blacklisted GPU " + std::to_string(src));
  if (cfg_.coherence && version != s.version)
    violation(ViolationKind::kCoherence,
              "flush of tile " + std::to_string(h->id) + " from GPU " +
                  std::to_string(src) + " issued for version " +
                  std::to_string(version) + " but the latest is " +
                  std::to_string(s.version));
}

void Checker::on_host_flush_done(const mem::DataHandle* h, int src, bool stale,
                                 std::uint64_t version, sim::Time now) {
  fold(kTagFlushDone);
  fold(h->id);
  fold(static_cast<std::uint64_t>(src));
  fold(stale ? 1u : 0u);
  fold_time(now);
  Shadow& s = shadow(h);
  s.d2h_inflight = false;
  if (stale) return;  // payload discarded; a re-flush (if any) re-issues
  if (cfg_.coherence && version != s.version)
    violation(ViolationKind::kCoherence,
              "flush published stale version " + std::to_string(version) +
                  " of tile " + std::to_string(h->id) +
                  " to the host (latest " + std::to_string(s.version) + ")");
  s.host_version = version;
  s.host_vc.join(s.arrival_vc[static_cast<std::size_t>(src)]);
  s.host_vc.join(s.write_vc);
}

void Checker::on_evict(const mem::DataHandle* h, int dev, bool was_dirty) {
  fold(kTagEvict);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  fold(was_dirty ? 1u : 0u);
  if (!cfg_.coherence) return;
  Shadow& s = shadow(h);
  if (was_dirty) {
    // The caller is about to flush the evicted bytes; they must be current.
    if (s.dev_version[static_cast<std::size_t>(dev)] != s.version)
      violation(ViolationKind::kCoherence,
                "dirty eviction of tile " + std::to_string(h->id) +
                    " from GPU " + std::to_string(dev) +
                    " holds stale version " +
                    std::to_string(s.dev_version[static_cast<std::size_t>(
                        dev)]) +
                    " (latest " + std::to_string(s.version) + ")");
    return;
  }
  if (!current_version_survives(h, s, dev))
    violation(ViolationKind::kCoherence,
              "eviction dropped the last copy of tile " +
                  std::to_string(h->id) + " version " +
                  std::to_string(s.version) + " (from GPU " +
                  std::to_string(dev) + ")");
}

bool Checker::current_version_survives(const mem::DataHandle* h,
                                       const Shadow& s,
                                       int excluding_dev) const {
  if (h->host.state == mem::ReplicaState::kValid &&
      s.host_version == s.version)
    return true;
  if (s.d2h_inflight) return true;  // a flush of the current version is due
  for (const auto& [g, r] : h->dev) {
    if (g == excluding_dev) continue;
    const auto gi = static_cast<std::size_t>(g);
    if (r.state == mem::ReplicaState::kValid && s.dev_version[gi] == s.version)
      return true;
    if (r.state == mem::ReplicaState::kInFlight &&
        s.in_version[gi] == s.version)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fault-recovery events
// ---------------------------------------------------------------------------

void Checker::on_transfer_abort(OpKind k, const mem::DataHandle* h, int src,
                                int dst, std::size_t attempts,
                                std::size_t cap) {
  fold(kTagAbort);
  fold(static_cast<std::uint64_t>(k));
  fold(h->id);
  fold(static_cast<std::uint64_t>(src) + 1);
  fold(static_cast<std::uint64_t>(dst) + 1);
  fold(attempts);
  Shadow& s = shadow(h);
  if (k == OpKind::kDtoH) {
    // The flush will never publish; stop counting it as survival evidence.
    s.d2h_inflight = false;
  } else {
    ++rx_aborts_seen_;
    if (dst >= 0) {
      // The reception was cancelled: no arrival will consume the in-flight
      // version, so clear it (current_version_survives must not count a
      // copy that is no longer coming).
      const auto d = static_cast<std::size_t>(dst);
      s.in_version[d] = Shadow::kNoVersion;
      s.in_vc[d] = VectorClock{};
    }
  }
  if (cap != 0 && attempts > cap)
    violation(ViolationKind::kCoherence,
              "unbounded retry: transfer of tile " + std::to_string(h->id) +
                  " -> " + (dst < 0 ? std::string("host")
                                    : "GPU " + std::to_string(dst)) +
                  " aborted on attempt " + std::to_string(attempts) +
                  " past the retry cap of " + std::to_string(cap));
}

void Checker::on_device_failure(int dev) {
  fold(kTagDevFail);
  fold(static_cast<std::uint64_t>(dev));
  if (failed_devs_.empty()) failed_devs_.assign(static_cast<std::size_t>(gpus_), 0);
  if (dev >= 0 && dev < gpus_) failed_devs_[static_cast<std::size_t>(dev)] = 1;
}

void Checker::on_replica_lost(const mem::DataHandle* h, int dev,
                              bool was_dirty) {
  fold(kTagLost);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  fold(was_dirty ? 1u : 0u);
  Shadow& s = shadow(h);
  const auto d = static_cast<std::size_t>(dev);
  s.dev_version[d] = Shadow::kNoVersion;
  s.in_version[d] = Shadow::kNoVersion;  // any reception to the dead GPU dies
  if (!cfg_.coherence) return;
  // If the purge dropped the last holder of the current version, recovery
  // owes us a replay (or a diagnosed data loss, which aborts the run before
  // finalize).  A surviving copy -- promoted or not -- settles it here.
  if (!current_version_survives(h, s, dev))
    pending_recovery_[h] =
        "tile " + std::to_string(h->id) + " version " +
        std::to_string(s.version) + " lost with " +
        (was_dirty ? std::string("dirty") : std::string("clean")) +
        " replica on failed GPU " + std::to_string(dev);
}

void Checker::on_promote(const mem::DataHandle* h, int dev) {
  fold(kTagPromote);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  Shadow& s = shadow(h);
  pending_recovery_.erase(h);
  if (!cfg_.coherence) return;
  const mem::Replica& r = h->dev[static_cast<std::size_t>(dev)];
  if (r.state != mem::ReplicaState::kValid || !r.dirty)
    violation(ViolationKind::kCoherence,
              "promotion of tile " + std::to_string(h->id) + " on GPU " +
                  std::to_string(dev) +
                  " did not leave a valid dirty replica");
  else if (s.dev_version[static_cast<std::size_t>(dev)] != s.version)
    violation(ViolationKind::kCoherence,
              "promoted replica of tile " + std::to_string(h->id) +
                  " on GPU " + std::to_string(dev) + " holds stale version " +
                  std::to_string(s.dev_version[static_cast<std::size_t>(dev)]) +
                  " (latest " + std::to_string(s.version) + ")");
}

void Checker::on_replay(const mem::DataHandle* h, std::uint64_t task) {
  fold(kTagReplay);
  fold(h->id);
  fold(task);
  // The replayed producer flows through on_submit/on_mark_written like any
  // task; once it rewrites the tile the current version exists again.
  pending_recovery_.erase(h);
}

void Checker::on_task_remap(std::uint64_t id, int from_dev, int to_dev) {
  fold(kTagRemap);
  fold(id);
  fold(static_cast<std::uint64_t>(from_dev));
  fold(static_cast<std::uint64_t>(to_dev));
  TaskInfo* t = task(id);
  if (!t) return;
  // The execution on from_dev was cancelled: forget its stamp and recorded
  // reads so the re-execution on to_dev re-orders them from scratch.
  if (t->vc_set)
    // NOLINTNEXTLINE(xkb-unordered-observable): pure erase of this task's
    // reader records; no observable state derives from visitation order.
    for (auto& [h, s] : shadows_) {
      auto it = std::remove_if(s.readers.begin(), s.readers.end(),
                               [id](const ReaderRec& r) { return r.task == id; });
      s.readers.erase(it, s.readers.end());
    }
  t->vc = VectorClock{};
  t->vc_set = false;
  t->finished = false;
  t->device = to_dev;
}

// ---------------------------------------------------------------------------
// Engine events, finalization, reporting
// ---------------------------------------------------------------------------

void Checker::on_engine_event(sim::Time t, std::uint64_t seq) {
  fold(kTagEngine);
  fold(seq);
  fold_time(t);
}

void Checker::finalize(const StatsView& st) {
  // --- counter invariants -----------------------------------------------
  if (!optimistic_ && st.optimistic_waits != 0)
    violation(ViolationKind::kStats,
              "optimistic_waits = " + std::to_string(st.optimistic_waits) +
                  " under an ablation configuration (must be 0)");
  // Every issued reception either materializes a replica or was aborted by
  // fault recovery -- nothing may simply evaporate.
  if (st.completed == st.submitted &&
      st.h2d + st.d2d != arrivals_ + rx_aborts_seen_)
    violation(ViolationKind::kStats,
              "transfer ledger does not balance: " + std::to_string(st.h2d) +
                  " H2D + " + std::to_string(st.d2d) + " D2D issued, but " +
                  std::to_string(arrivals_) + " replicas materialized and " +
                  std::to_string(rx_aborts_seen_) + " receptions aborted");

  // --- progress audit ---------------------------------------------------
  if (cfg_.progress && st.completed != st.submitted) {
    std::size_t stuck = 0;
    std::string dump;
    for (std::uint64_t id : task_order_) {
      const TaskInfo& t = tasks_.at(id);
      if (t.completed) continue;
      ++stuck;
      if (stuck <= 8) {
        std::string waits;
        for (std::uint64_t p : t.preds) {
          const TaskInfo* pt = task(p);
          if (pt && !pt->completed)
            waits += (waits.empty() ? "" : ",") + std::to_string(p);
        }
        dump += "\n  task " + std::to_string(id) + " '" + t.label +
                "' waiting on [" + waits + "]";
      }
    }
    violation(ViolationKind::kProgress,
              "engine drained with " + std::to_string(stuck) + " of " +
                  std::to_string(st.submitted) +
                  " tasks incomplete (deadlock or dropped completion)" +
                  dump);

    // Wait-for cycle detection over the incomplete tasks: task -> its
    // incomplete predecessors.  A cycle is a hard failure with the cycle
    // dumped; acyclic stuck graphs point at a dropped completion event.
    std::unordered_map<std::uint64_t, int> color;  // 0 new, 1 open, 2 done
    std::vector<std::uint64_t> path;
    std::string cycle;
    std::function<bool(std::uint64_t)> dfs = [&](std::uint64_t id) -> bool {
      color[id] = 1;
      path.push_back(id);
      const TaskInfo* t = task(id);
      if (t)
        for (std::uint64_t p : t->preds) {
          const TaskInfo* pt = task(p);
          if (!pt || pt->completed) continue;
          if (color[p] == 1) {
            auto it = std::find(path.begin(), path.end(), p);
            for (; it != path.end(); ++it)
              cycle += (cycle.empty() ? "" : " -> ") + std::to_string(*it);
            cycle += " -> " + std::to_string(p);
            return true;
          }
          if (color[p] == 0 && dfs(p)) return true;
        }
      path.pop_back();
      color[id] = 2;
      return false;
    };
    for (std::uint64_t id : task_order_) {
      const TaskInfo& t = tasks_.at(id);
      if (!t.completed && color[id] == 0 && dfs(id)) {
        violation(ViolationKind::kProgress,
                  "wait-for cycle detected: " + cycle);
        break;
      }
    }
  }

  // --- final protocol scan ----------------------------------------------
  if (cfg_.coherence) {
    // Both maps are keyed by DataHandle pointers; iterating them directly
    // would emit violations in heap-address order -- nondeterministic
    // output from the very layer that certifies determinism (flagged by
    // xkb-tidy's unordered-observable check).  Scan snapshots sorted by
    // stable tile id instead.
    auto by_tile_id = [](auto* a, auto* b) { return a->id < b->id; };
    std::vector<const mem::DataHandle*> pending;
    pending.reserve(pending_recovery_.size());
    for (const auto& [h, msg] : pending_recovery_)  // NOLINT(xkb-unordered-observable): order-independent snapshot, sorted below
      pending.push_back(h);
    std::sort(pending.begin(), pending.end(), by_tile_id);
    for (const mem::DataHandle* h : pending)
      violation(ViolationKind::kCoherence,
                "unresolved recovery: " + pending_recovery_.at(h) +
                    " and neither a surviving copy nor a replay restored it");
    std::vector<const mem::DataHandle*> tiles;
    tiles.reserve(shadows_.size());
    for (const auto& [h, s] : shadows_)  // NOLINT(xkb-unordered-observable): order-independent snapshot, sorted below
      tiles.push_back(h);
    std::sort(tiles.begin(), tiles.end(), by_tile_id);
    for (const mem::DataHandle* h : tiles) {
      const Shadow& s = shadows_.at(h);
      if (pending_recovery_.count(h)) continue;  // already reported above
      int dirty = 0;
      for (const auto& [g, r] : h->dev) {
        if (r.dirty) ++dirty;
        if (r.pins != 0)
          violation(ViolationKind::kCoherence,
                    "pin leak: tile " + std::to_string(h->id) + " on GPU " +
                        std::to_string(g) + " still has " +
                        std::to_string(r.pins) + " pins after the run");
      }
      if (dirty > 1)
        violation(ViolationKind::kCoherence,
                  "tile " + std::to_string(h->id) + " ends the run with " +
                      std::to_string(dirty) + " dirty replicas");
      if (st.completed == st.submitted &&
          !current_version_survives(h, s, /*excluding_dev=*/-1))
        violation(ViolationKind::kCoherence,
                  "tile " + std::to_string(h->id) +
                      " lost its current version " +
                      std::to_string(s.version) + " by the end of the run");
    }
  }
}

std::string Checker::report() const {
  if (total_violations_ == 0) return {};
  std::string out = "xkb::check found " + std::to_string(total_violations_) +
                    " violation(s):\n";
  for (const Violation& v : violations_)
    out += std::string("  [") + to_string(v.kind) + "] " + v.message + "\n";
  if (total_violations_ > violations_.size())
    out += "  ... and " +
           std::to_string(total_violations_ - violations_.size()) +
           " more (recording capped)\n";
  return out;
}

}  // namespace xkb::check
