#include "obs/obs.hpp"

#include <algorithm>
#include <array>

#include "trace/trace.hpp"

namespace xkb::obs {

namespace {
using trace::OpKind;
using trace::SourceKind;
}  // namespace

Observability::Observability(int num_gpus)
    : gpus_(num_gpus),
      ready_(static_cast<std::size_t>(num_gpus), nullptr),
      hits_(static_cast<std::size_t>(num_gpus), 0),
      misses_(static_cast<std::size_t>(num_gpus), 0),
      inflight_hits_(static_cast<std::size_t>(num_gpus), 0),
      evict_clean_(static_cast<std::size_t>(num_gpus), 0),
      evict_dirty_(static_cast<std::size_t>(num_gpus), 0) {}

sim::UsageProbe* Observability::make_link_probe(std::string name,
                                                std::string cls, LinkDir dir,
                                                int src, int dst) {
  links_.push_back(std::make_unique<LinkProbe>(std::move(name),
                                               std::move(cls), dir, src, dst));
  return links_.back().get();
}

void Observability::on_kernel(int dev, const std::string& label,
                              sim::Interval iv) {
  if (iv.end > last_event_) last_event_ = iv.end;
  flight_.note(iv.end, FlightEntry::Kind::kKernel, dev, -1, 0, 0,
               label.c_str());
}

void Observability::on_cache_ref(int dev, CacheRef ref) {
  auto d = static_cast<std::size_t>(dev);
  switch (ref) {
    case CacheRef::kHit: ++hits_[d]; break;
    case CacheRef::kMiss: ++misses_[d]; break;
    case CacheRef::kInFlightHit: ++inflight_hits_[d]; break;
  }
}

void Observability::on_evict(int dev, bool dirty) {
  auto d = static_cast<std::size_t>(dev);
  if (dirty)
    ++evict_dirty_[d];
  else
    ++evict_clean_[d];
}

void Observability::on_decision(Decision d) {
  if (d.t > last_event_) last_event_ = d.t;
  flight_.note(d.t, FlightEntry::Kind::kDecision, d.picked_dev, d.dst,
               d.handle, 0, to_string(d.pick));
  if (d.pick == SourceKind::kWaitDevice) {
    dev_rx(tile_rx(d.handle), d.dst).wait = d.forced ? 1 : 0;
    flight_.note(last_event_, FlightEntry::Kind::kWait, d.picked_dev, d.dst,
                 d.handle, 0, d.forced ? "forced" : "optimistic");
  }
  decisions_.push_back(std::move(d));
}

void Observability::on_fault_mark(sim::Time t, std::string what,
                                  std::string detail) {
  if (t > last_event_) last_event_ = t;
  count_fault(what);
  flight_.note(t, FlightEntry::Kind::kFault, -1, -1, 0, 0, what.c_str());
  fault_marks_.push_back(FaultMark{t, std::move(what), std::move(detail)});
}

void Observability::count_fault(const std::string& what, double n) {
  for (auto& kv : fault_counts_)
    if (kv.first == what) {
      kv.second += n;
      return;
    }
  fault_counts_.emplace_back(what, n);
}

void Observability::on_transfer(OpKind k, std::uint64_t handle, int src,
                                int dst, sim::Interval iv, std::size_t bytes,
                                bool chained) {
  if (iv.end > last_event_) last_event_ = iv.end;
  {
    const char* tag = k == OpKind::kHtoD   ? "h2d"
                      : k == OpKind::kPtoP ? (chained ? "d2d-chained" : "d2d")
                                           : "d2h";
    flight_.note(iv.end, FlightEntry::Kind::kTransfer,
                 k == OpKind::kHtoD ? -1 : src, k == OpKind::kDtoH ? -1 : dst,
                 handle, bytes, tag);
  }
  if (k != OpKind::kHtoD && k != OpKind::kPtoP) return;
  std::vector<DevRx>& tile = tile_rx(handle);
  DevRx& to = dev_rx(tile, dst);
  if (k == OpKind::kPtoP && chained) {
    // This copy is the forwarding leg of a wait: connect it back to the
    // reception it chained off (still the most recent rx on `src`).
    const auto from =
        std::find_if(tile.begin(), tile.end(),
                     [src](const DevRx& r) { return r.dev == src; });
    if (from != tile.end() && from->tid != 0) {
      Flow f;
      f.handle = handle;
      f.src_dev = src;
      f.dst_dev = dst;
      f.src_tid = from->tid;
      f.src_iv = from->iv;
      f.dst_iv = iv;
      f.forced = to.wait == 1;
      flows_.push_back(f);
    }
    to.wait = -1;
  }
  to.tid = k == OpKind::kHtoD ? 1 : 3;
  to.iv = iv;
}

std::vector<Observability::DevRx>& Observability::tile_rx(
    std::uint64_t tile) {
  if (tile >= rx_.size()) rx_.resize(tile + 1);
  return rx_[tile];
}

Observability::DevRx& Observability::dev_rx(std::vector<DevRx>& tile,
                                            int dev) {
  for (DevRx& r : tile)
    if (r.dev == dev) return r;
  tile.push_back(DevRx{dev, 0, -1, {}});
  return tile.back();
}

Series* Observability::ready_series(int dev) {
  auto d = static_cast<std::size_t>(dev);
  if (!ready_[d])
    ready_[d] = &reg_.series("ready.gpu" + std::to_string(dev));
  return ready_[d];
}

sim::Time Observability::span() const {
  sim::Time s = last_event_;
  for (const auto& l : links_)
    if (l->last_end() > s) s = l->last_end();
  return s;
}

void Observability::clear() {
  for (auto& l : links_) l->reset();
  decisions_.clear();
  flows_.clear();
  fault_marks_.clear();
  fault_counts_.clear();
  std::fill(hits_.begin(), hits_.end(), 0);
  std::fill(misses_.begin(), misses_.end(), 0);
  std::fill(inflight_hits_.begin(), inflight_hits_.end(), 0);
  std::fill(evict_clean_.begin(), evict_clean_.end(), 0);
  std::fill(evict_dirty_.begin(), evict_dirty_.end(), 0);
  last_event_ = 0.0;
  rx_.clear();
  flight_.clear();
  flight_dump_.clear();
  reg_.reset_values();
}

void Observability::finalize_registry(const trace::Trace& ops) {
  // Per op class, indexed by OpKind: time over all GPUs (row 0) and per GPU
  // g (row 1 + g), added in issue order exactly as Trace::breakdown adds.
  std::vector<std::array<double, 4>> time(static_cast<std::size_t>(gpus_) + 1);
  std::array<std::size_t, 4> count{}, bytes{};
  for (const trace::Record& r : ops.records()) {
    const auto k = static_cast<std::size_t>(r.kind);
    time[0][k] += r.end - r.start;
    time[static_cast<std::size_t>(r.device) + 1][k] += r.end - r.start;
    ++count[k];
    bytes[k] += r.bytes;
  }
  const char* const cls[] = {"htod", "ptop", "dtoh", "kernel"};
  const char* const xfer[] = {"h2d", "d2d", "d2h"};
  for (std::size_t k = 0; k < 3; ++k) {
    reg_.counter(std::string("transfers.") + xfer[k]) =
        static_cast<double>(count[k]);
    reg_.counter(std::string("bytes.") + cls[k]) =
        static_cast<double>(bytes[k]);
  }
  for (std::size_t row = 0; row < time.size(); ++row) {
    const std::string p = row ? "gpu" + std::to_string(row - 1) + "." : "";
    for (std::size_t k = 0; k < 4; ++k)
      reg_.counter(p + "time." + cls[k]) = time[row][k];
  }
  finalize_registry();
}

void Observability::finalize_registry() {
  auto set = [this](const std::string& k, double v) { reg_.counter(k) = v; };
  std::size_t opt_waits = 0, forced_waits = 0;
  for (const Decision& d : decisions_)
    if (d.pick == SourceKind::kWaitDevice)
      ++(d.forced ? forced_waits : opt_waits);
  set("waits.optimistic", static_cast<double>(opt_waits));
  set("waits.forced", static_cast<double>(forced_waits));
  set("decisions", static_cast<double>(decisions_.size()));
  set("flows", static_cast<double>(flows_.size()));
  for (const auto& kv : fault_counts_) set("fault." + kv.first, kv.second);
  std::uint64_t hits = 0, misses = 0, inflight = 0, ec = 0, ed = 0;
  for (int g = 0; g < gpus_; ++g) {
    auto d = static_cast<std::size_t>(g);
    hits += hits_[d];
    misses += misses_[d];
    inflight += inflight_hits_[d];
    ec += evict_clean_[d];
    ed += evict_dirty_[d];
    const std::string p = "gpu" + std::to_string(g) + ".";
    set(p + "cache.hits", static_cast<double>(hits_[d]));
    set(p + "cache.misses", static_cast<double>(misses_[d]));
    set(p + "cache.inflight_hits", static_cast<double>(inflight_hits_[d]));
    set(p + "evict.clean", static_cast<double>(evict_clean_[d]));
    set(p + "evict.dirty", static_cast<double>(evict_dirty_[d]));
  }
  set("cache.hits", static_cast<double>(hits));
  set("cache.misses", static_cast<double>(misses));
  set("cache.inflight_hits", static_cast<double>(inflight));
  set("evict.clean", static_cast<double>(ec));
  set("evict.dirty", static_cast<double>(ed));
  for (const auto& l : links_) {
    set("link." + l->name() + ".bytes", static_cast<double>(l->bytes()));
    set("link." + l->name() + ".busy", l->busy());
    set("link." + l->name() + ".ops", static_cast<double>(l->ops()));
  }
  reg_.set_gauge("span", span());
}

}  // namespace xkb::obs
