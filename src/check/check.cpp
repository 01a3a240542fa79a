#include "check/check.hpp"

#include <algorithm>
#include <bit>

#include "util/annotations.hpp"

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

/// First record in [first, last) whose device is not below `g`.
template <class Rec>
Rec* lower_bound_dev(Rec* first, Rec* last, int g) {
  return std::lower_bound(first, last, g,
                          [](const Rec& e, int d) { return e.first < d; });
}

/// The clock of a D2D reception whose source holds no record.
const VectorClock kNoClock;

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

Checker::DevShadow* Checker::Shadow::find(int g) const {
  DevRec* const last = dev + ndev;
  DevRec* const it = lower_bound_dev(dev, last, g);
  return it != last && it->first == g ? &it->second : nullptr;
}

Checker::DevShadow& Checker::touch(Shadow& s, int g) {
  DevRec* const last = s.dev + s.ndev;
  DevRec* const it = lower_bound_dev(s.dev, last, g);
  if (it != last && it->first == g) return it->second;
  const std::size_t pos = static_cast<std::size_t>(it - s.dev);
  if (!s.dev || s.ndev == std::size_t{1} << s.dev_class) {
    // Full: move the records into an array of the next size around a gap
    // at `pos`, and hand the old array back in its default state.
    const std::size_t cls = s.dev ? s.dev_class + 1u : 0u;
    DevRec* const grown = devs_.acquire(cls);
    std::move(s.dev, it, grown);
    std::move(it, last, grown + pos + 1);
    if (s.dev) {
      std::fill(s.dev, last, DevRec{});
      devs_.release(s.dev, s.dev_class);
    }
    s.dev = grown;
    s.dev_class = static_cast<std::uint8_t>(cls);
  } else {
    std::move_backward(it, last, last + 1);
  }
  ++s.ndev;
  s.dev[pos] = {g, DevShadow{}};
  return s.dev[pos].second;
}

Checker::Shadow& Checker::shadow(const mem::DataHandle* h) {
  // User data starts on the host (mem::Registry interns host-valid handles);
  // version 0 is the initial host content.
  while (shadows_.size() <= h->id) shadows_.emplace();
  Shadow& s = shadows_[h->id];
  s.handle = h;
  return s;
}

void Checker::settle_recovery(Shadow& s) {
  if (!s.recovery_pending) return;
  s.recovery_pending = false;
  --pending_recoveries_;
}

VectorClock& Checker::lane_clock(std::size_t lane) {
  if (lane >= lanes_.size()) lanes_.resize(lane + 1);
  return lanes_[lane];
}

void Checker::violation(ViolationKind kind, std::string msg) {
  ++total_violations_;
  if (violations_.size() < kMaxRecorded)
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
    std::span<const std::uint64_t> pred_ids) {
  while (tasks_.size() <= id) tasks_.emplace();  // id 0 and skipped ids
  TaskInfo& t = tasks_[id];
  t.label = std::move(label);
  t.submitted = true;
  t.acc_begin = acc_.size();
  t.acc_count = static_cast<std::uint32_t>(accesses.size());
  fold(kTagSubmit);
  fold(id);
  for (const auto& [h, m] : accesses) {
    acc_.push_back({&shadow(h), m});
    fold(h->id);
    fold(static_cast<std::uint64_t>(m));
  }
  // The runtime now sorts predecessors by task id (never by pointer), so
  // the incoming order is already reproducible; keep folding in sorted
  // order anyway so the hash never depends on any caller's ordering.
  t.pred_begin = preds_.size();
  t.pred_count = static_cast<std::uint32_t>(pred_ids.size());
  preds_.insert(preds_.end(), pred_ids.begin(), pred_ids.end());
  std::sort(preds_.begin() + static_cast<std::ptrdiff_t>(t.pred_begin),
            preds_.end());
  for (std::uint64_t p : preds(t)) {
    fold(p);
    if (TaskInfo* pt = task(p)) ++pt->open_succs;
  }
  if (completed_vc_stale_) {
    completed_vc_.assign_dense(completed_);
    completed_vc_stale_ = false;
  }
  t.submit_vc.assign(completed_vc_, clocks_);
}

XKB_HOT void Checker::stamp(TaskInfo& t, std::size_t lane) {
  // The new event's clock is the lane's previous one joined with every
  // edge into `t`, so it is built in the lane clock, where the caller has
  // already joined the edges the task's operands carry.
  VectorClock& lc = lane_clock(lane);
  lc.join(t.submit_vc);
  for (std::uint64_t p : preds(t)) {
    const TaskInfo* pt = task(p);
    // In a healthy run every predecessor completed before this task became
    // ready; an incomplete predecessor here means the dependence edge was
    // lost (fault injection) and the race detector below will flag the
    // unordered accesses.  A completed predecessor whose epoch the lane
    // clock already covers is contained in it (vector_clock.hpp), so its
    // join would change nothing: the operand arrivals joined before this
    // stamp usually carry it.
    if (pt && pt->completed && !pt->epoch.leq(lc)) lc.join(pt->vc);
  }
  lc.tick(lane);
  t.vc.assign(lc, clocks_);
  t.epoch = {static_cast<std::uint32_t>(lane), lc.at(lane)};
}

void Checker::check_reads(std::uint64_t id, TaskInfo& t) {
  for (const AccessRec& a : accesses(t)) {
    if (a.mode == Access::kW) continue;
    Shadow& s = *a.shadow;
    if (s.write_task != 0 && s.write_task != id && !s.write_epoch.leq(t.vc))
      violation(ViolationKind::kRace,
                "race: read of tile " + std::to_string(s.handle->id) +
                    " by task " + std::to_string(id) + " '" + t.label +
                    "' is not ordered after write by task " +
                    std::to_string(s.write_task) + " '" +
                    task(s.write_task)->label + "' (reader clock " +
                    t.vc.to_string() + ", writer clock " +
                    s.write_vc.to_string() + ")");
    readers_.append(s.readers, {id, t.epoch});
  }
}

void Checker::record_writes(std::uint64_t id, TaskInfo& t, int dev,
                            sim::Time /*now*/) {
  for (const AccessRec& a : accesses(t)) {
    if (a.mode == Access::kR) continue;
    Shadow& s = *a.shadow;
    if (s.write_task != 0 && s.write_task != id && !s.write_epoch.leq(t.vc))
      violation(ViolationKind::kRace,
                "race: write of tile " + std::to_string(s.handle->id) +
                    " by task " + std::to_string(id) + " '" + t.label +
                    "' is not ordered after write by task " +
                    std::to_string(s.write_task) + " '" +
                    task(s.write_task)->label + "'");
    for (const util::Link<ReaderRec>* l = s.readers.head; l; l = l->next) {
      const ReaderRec& r = l->value;
      if (r.task == id) continue;
      if (!r.epoch.leq(t.vc)) {
        const TaskInfo* rt = task(r.task);
        violation(ViolationKind::kRace,
                  "race: write of tile " + std::to_string(s.handle->id) +
                      " by task " + std::to_string(id) + " '" + t.label +
                      "' is not ordered after read by task " +
                      std::to_string(r.task) + " '" +
                      (rt ? rt->label : "?") + "'");
      }
    }
    s.write_vc.assign(t.vc, clocks_);
    s.write_epoch = t.epoch;
    s.write_task = id;
    readers_.release(s.readers);
    if (dev < 0) s.host_vc.join(t.vc);  // host-side writer (host_write)
  }
}

XKB_HOT void Checker::on_kernel_issue(std::uint64_t id, int dev,
                                      sim::Time start, sim::Time end) {
  fold(kTagKernel);
  fold(id);
  fold(static_cast<std::uint64_t>(dev));
  fold_time(start);
  fold_time(end);
  TaskInfo* t = task(id);
  if (!t) return;
  if (cfg_.coherence && device_failed(dev))
    violation(ViolationKind::kCoherence,
              "kernel of task " + std::to_string(id) + " '" + t->label +
                  "' issued on blacklisted GPU " + std::to_string(dev));
  // Import the happens-before edges carried by the operand receptions, then
  // verify freshness: a kernel must start with every read operand valid on
  // its device and holding the latest version.
  VectorClock& lc = lane_clock(lane_kernel(dev));
  for (const AccessRec& a : accesses(*t)) {
    if (a.mode == Access::kW) continue;
    Shadow& s = *a.shadow;
    if (const DevShadow* d = s.find(dev)) lc.join(d->arrival_vc);
    if (cfg_.coherence) {
      const mem::Replica& r = s.handle->dev[dev];
      if (r.state != mem::ReplicaState::kValid)
        violation(ViolationKind::kCoherence,
                  "kernel of task " + std::to_string(id) + " '" + t->label +
                      "' started on GPU " + std::to_string(dev) +
                      " with operand tile " + std::to_string(s.handle->id) +
                      " in state '" + mem::to_string(r.state) + "'");
      else if (s.dev_version(dev) != s.version)
        violation(ViolationKind::kCoherence,
                  "stale read: task " + std::to_string(id) + " '" + t->label +
                      "' on GPU " + std::to_string(dev) + " reads tile " +
                      std::to_string(s.handle->id) + " at version " +
                      std::to_string(s.dev_version(dev)) +
                      " but the latest write is version " +
                      std::to_string(s.version));
    }
  }
  stamp(*t, lane_kernel(dev));
  check_reads(id, *t);
}

void Checker::on_task_finish(std::uint64_t id, int dev, sim::Time now) {
  fold(kTagFinish);
  fold(id);
  fold_time(now);
  TaskInfo* t = task(id);
  if (!t) return;
  if (!t->stamped()) {
    // Kernel-less placement task (e.g. the 2D block-cyclic distribution):
    // no stream lane, so order it on the device's virtual lane.  Its reads
    // still carry the arrival edges and are checked like kernel reads.
    VectorClock& lc = lane_clock(lane_virtual(dev));
    for (const AccessRec& a : accesses(*t)) {
      if (a.mode == Access::kW) continue;
      Shadow& s = *a.shadow;
      if (const DevShadow* d = s.find(dev)) lc.join(d->arrival_vc);
      if (cfg_.coherence && s.dev_version(dev) != s.version)
        violation(ViolationKind::kCoherence,
                  "stale read: placement task " + std::to_string(id) + " '" +
                      t->label + "' on GPU " + std::to_string(dev) +
                      " observes tile " + std::to_string(s.handle->id) +
                      " at version " + std::to_string(s.dev_version(dev)) +
                      ", latest is " + std::to_string(s.version));
    }
    stamp(*t, lane_virtual(dev));
    check_reads(id, *t);
  }
  record_writes(id, *t, dev, now);
}

XKB_HOT void Checker::on_task_complete(std::uint64_t id, sim::Time now) {
  fold(kTagComplete);
  fold(id);
  fold_time(now);
  TaskInfo* t = task(id);
  if (!t) return;
  if (!t->stamped()) {
    // Host-side task (memory_coherent / host_write): executes on the host
    // lane; reads carry the host copy's happens-before edges.
    VectorClock& lc = lane_clock(/*host lane=*/0);
    for (const AccessRec& a : accesses(*t)) {
      if (a.mode == Access::kW) continue;
      Shadow& s = *a.shadow;
      lc.join(s.host_vc);
      if (cfg_.coherence && s.host_version != s.version)
        violation(ViolationKind::kCoherence,
                  "host task " + std::to_string(id) + " '" + t->label +
                      "' observes tile " + std::to_string(s.handle->id) +
                      " at host version " + std::to_string(s.host_version) +
                      ", latest is " + std::to_string(s.version));
    }
    stamp(*t, /*host lane=*/0);
    check_reads(id, *t);
    record_writes(id, *t, /*dev=*/-1, now);
  }
  t->completed = true;
  t->vc.for_each([this](std::size_t lane, std::uint64_t v) {
    if (lane >= completed_.size()) completed_.resize(lane + 1, 0);
    completed_[lane] = std::max(completed_[lane], v);
  });
  completed_vc_stale_ = true;
  // A completed task is never stamped again, so its submit snapshot and its
  // hold on its predecessors' clocks end here.
  t->submit_vc.recycle(clocks_);
  for (std::uint64_t p : preds(*t))
    if (TaskInfo* pt = task(p)) {
      --pt->open_succs;
      release_clock(*pt);
    }
  release_clock(*t);
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
      const mem::Replica& r = h->dev[src];
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
      else if (s.dev_version(src) != s.version)
        violation(ViolationKind::kCoherence,
                  "choose_source picked stale replica on GPU " +
                      std::to_string(src) + " for tile " +
                      std::to_string(h->id) + " (version " +
                      std::to_string(s.dev_version(src)) + ", latest " +
                      std::to_string(s.version) + ")");
      if (policy_ == SourcePolicy::kHostOnly && host_valid)
        violation(ViolationKind::kCoherence,
                  "host-only source policy chose a device source for tile " +
                      std::to_string(h->id) +
                      " although the host copy is valid");
      break;
    }
    case SourceKind::kWaitDevice: {
      const mem::Replica& r = h->dev[src];
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

XKB_HOT void Checker::on_transfer_issue(OpKind k, const mem::DataHandle* h,
                                        int src, int dst, sim::Time start,
                                        sim::Time end) {
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
    DevShadow& to = touch(s, dst);
    to.in_version = s.host_version;
    to.in_vc.assign(s.host_vc, clocks_);
  } else {
    if (cfg_.coherence && h->dev[src].state != mem::ReplicaState::kValid)
      violation(ViolationKind::kCoherence,
                "D2D issued for tile " + std::to_string(h->id) + " from GPU " +
                    std::to_string(src) + " whose replica is not valid");
    if (cfg_.coherence && s.dev_version(src) != s.version)
      violation(ViolationKind::kCoherence,
                "D2D issued for tile " + std::to_string(h->id) + " from GPU " +
                    std::to_string(src) + " holding stale version " +
                    std::to_string(s.dev_version(src)) + " (latest " +
                    std::to_string(s.version) + ")");
    DevShadow& to = touch(s, dst);
    const DevShadow* from = s.find(src);  // after touch: it may move records
    to.in_version = from ? from->version : kNoVersion;
    to.in_vc.assign(from ? from->arrival_vc : kNoClock, clocks_);
    // The source's arrivals often carry the last write already.
    if (!s.write_epoch.leq(to.in_vc)) to.in_vc.join(s.write_vc);
  }
}

XKB_HOT void Checker::on_arrival(const mem::DataHandle* h, int dev,
                                 sim::Time now) {
  fold(kTagArrival);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  fold_time(now);
  ++arrivals_;
  Shadow& s = shadow(h);
  DevShadow& d = touch(s, dev);
  if (cfg_.coherence && d.in_version == kNoVersion)
    violation(ViolationKind::kCoherence,
              "arrival of tile " + std::to_string(h->id) + " on GPU " +
                  std::to_string(dev) + " without a matching transfer issue");
  else if (cfg_.coherence && d.in_version != s.version)
    violation(ViolationKind::kCoherence,
              "arrival delivered stale version " +
                  std::to_string(d.in_version) + " of tile " +
                  std::to_string(h->id) + " to GPU " + std::to_string(dev) +
                  " (latest " + std::to_string(s.version) + ")");
  d.version = d.in_version;
  d.in_version = kNoVersion;
  d.arrival_vc.absorb(d.in_vc, clocks_);
}

void Checker::on_mark_written(const mem::DataHandle* h, int dev,
                              sim::Time now) {
  fold(kTagWritten);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  fold_time(now);
  Shadow& s = shadow(h);
  ++s.version;
  for (auto& [g, d] : s.devs())
    if (g != dev) d.version = kNoVersion;
  touch(s, dev).version = s.version;
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
  for (auto& rec : s.devs()) rec.second.version = kNoVersion;
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
  if (const DevShadow* d = s.find(src)) s.host_vc.join(d->arrival_vc);
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
    if (s.dev_version(dev) != s.version)
      violation(ViolationKind::kCoherence,
                "dirty eviction of tile " + std::to_string(h->id) +
                    " from GPU " + std::to_string(dev) +
                    " holds stale version " +
                    std::to_string(s.dev_version(dev)) + " (latest " +
                    std::to_string(s.version) + ")");
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
    const DevShadow* d = s.find(g);
    if (!d) continue;
    if (r.state == mem::ReplicaState::kValid && d->version == s.version)
      return true;
    if (r.state == mem::ReplicaState::kInFlight && d->in_version == s.version)
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
    // The reception was cancelled: no arrival will consume the in-flight
    // version, so clear it (current_version_survives must not count a
    // copy that is no longer coming).
    if (DevShadow* d = dst >= 0 ? s.find(dst) : nullptr) {
      d->in_version = kNoVersion;
      d->in_vc.recycle(clocks_);
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
  if (DevShadow* d = s.find(dev)) {
    d->version = kNoVersion;
    d->in_version = kNoVersion;  // any reception to the dead GPU dies
    d->in_vc.recycle(clocks_);
  }
  if (!cfg_.coherence) return;
  // If the purge dropped the last holder of the current version, recovery
  // owes us a replay (or a diagnosed data loss, which aborts the run before
  // finalize).  A surviving copy -- promoted or not -- settles it here.
  if (!current_version_survives(h, s, dev)) {
    if (!s.recovery_pending) ++pending_recoveries_;
    s.recovery_pending = true;
    s.lost_dirty = was_dirty;
    s.lost_dev = dev;
    s.lost_version = s.version;
  }
}

void Checker::on_promote(const mem::DataHandle* h, int dev) {
  fold(kTagPromote);
  fold(h->id);
  fold(static_cast<std::uint64_t>(dev));
  Shadow& s = shadow(h);
  settle_recovery(s);
  if (!cfg_.coherence) return;
  const mem::Replica& r = h->dev[dev];
  if (r.state != mem::ReplicaState::kValid || !r.dirty)
    violation(ViolationKind::kCoherence,
              "promotion of tile " + std::to_string(h->id) + " on GPU " +
                  std::to_string(dev) +
                  " did not leave a valid dirty replica");
  else if (s.dev_version(dev) != s.version)
    violation(ViolationKind::kCoherence,
              "promoted replica of tile " + std::to_string(h->id) +
                  " on GPU " + std::to_string(dev) + " holds stale version " +
                  std::to_string(s.dev_version(dev)) + " (latest " +
                  std::to_string(s.version) + ")");
}

void Checker::on_replay(const mem::DataHandle* h, std::uint64_t task) {
  fold(kTagReplay);
  fold(h->id);
  fold(task);
  // The replayed producer flows through on_submit/on_mark_written like any
  // task; once it rewrites the tile the current version exists again.
  if (h->id < shadows_.size()) settle_recovery(shadows_[h->id]);
}

void Checker::on_task_remap(std::uint64_t id, int from_dev, int to_dev) {
  fold(kTagRemap);
  fold(id);
  fold(static_cast<std::uint64_t>(from_dev));
  fold(static_cast<std::uint64_t>(to_dev));
  TaskInfo* t = task(id);
  if (!t) return;
  // The execution on from_dev was cancelled: forget its stamp and recorded
  // reads so the re-execution on to_dev re-orders them from scratch.  Only
  // the task's own read operands can hold its reader records.
  if (t->stamped())
    for (const AccessRec& a : accesses(*t)) {
      if (a.mode == Access::kW) continue;
      readers_.erase_if(a.shadow->readers,
                        [id](const ReaderRec& r) { return r.task == id; });
    }
  t->vc.recycle(clocks_);
  t->epoch = {};
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
  // Both walks go by ascending task id, which is submission order.
  if (st.completed != st.submitted) {
    std::size_t stuck = 0;
    std::string dump;
    for (std::uint64_t id = 0; id < tasks_.size(); ++id) {
      const TaskInfo& t = tasks_[id];
      if (!t.submitted || t.completed) continue;
      ++stuck;
      if (stuck <= 8) {
        std::string waits;
        for (std::uint64_t p : preds(t)) {
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
    std::vector<char> color(tasks_.size(), 0);  // 0 new, 1 open, 2 done
    std::vector<std::uint64_t> path;
    std::string cycle;
    auto dfs = [&](auto& self, std::uint64_t id) -> bool {
      color[id] = 1;
      path.push_back(id);
      for (std::uint64_t p : preds(tasks_[id])) {
        const TaskInfo* pt = task(p);
        if (!pt || pt->completed) continue;
        if (color[p] == 1) {
          auto it = std::find(path.begin(), path.end(), p);
          for (; it != path.end(); ++it)
            cycle += (cycle.empty() ? "" : " -> ") + std::to_string(*it);
          cycle += " -> " + std::to_string(p);
          return true;
        }
        if (color[p] == 0 && self(self, p)) return true;
      }
      path.pop_back();
      color[id] = 2;
      return false;
    };
    for (std::uint64_t id = 0; id < tasks_.size(); ++id) {
      const TaskInfo& t = tasks_[id];
      if (t.submitted && !t.completed && color[id] == 0 && dfs(dfs, id)) {
        violation(ViolationKind::kProgress,
                  "wait-for cycle detected: " + cycle);
        break;
      }
    }
  }

  // --- final protocol scan ----------------------------------------------
  if (cfg_.coherence) {
    // shadows_ is indexed by tile id, so both walks report in tile-id order.
    if (pending_recoveries_ != 0)
      shadows_.for_each([&](const Shadow& s) {
        if (s.recovery_pending)
          violation(ViolationKind::kCoherence,
                    "unresolved recovery: tile " +
                        std::to_string(s.handle->id) + " version " +
                        std::to_string(s.lost_version) + " lost with " +
                        (s.lost_dirty ? "dirty" : "clean") +
                        " replica on failed GPU " +
                        std::to_string(s.lost_dev) +
                        " and neither a surviving copy nor a replay"
                        " restored it");
      });
    shadows_.for_each([&](const Shadow& s) {
      // Untouched ids, and tiles already reported above, are skipped.
      if (!s.handle || s.recovery_pending) return;
      const mem::DataHandle* h = s.handle;
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
    });
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
