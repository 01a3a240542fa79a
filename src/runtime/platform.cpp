#include "runtime/platform.hpp"

#include <algorithm>
#include <cassert>

#include "fault/injector.hpp"
#include "obs/critical_path.hpp"

namespace xkb::rt {

namespace {

constexpr double kGB = 1e9;

// Where dst's channel sits, or would go, in a peer row sorted by destination.
template <class Row>
auto p2p_slot(Row& row, int dst) {
  return std::lower_bound(row.begin(), row.end(), dst,
                          [](const auto& e, int d) { return e.first < d; });
}

}  // namespace

Platform::Platform(topo::Topology topo, PerfModel perf, PlatformOptions opt)
    : topo_(std::move(topo)), perf_(perf), opt_(opt) {
  const int n = topo_.num_gpus();

  // Host links: bandwidth and route latency taken from the first GPU on
  // each link (GPUs sharing a switch share its uplink characteristics).
  h2d_.resize(topo_.num_host_links());
  d2h_.resize(topo_.num_host_links());
  for (int g = 0; g < n; ++g) {
    const int l = topo_.host_link_of(g);
    if (!h2d_[l]) {
      const double bw = topo_.host_bandwidth_gbps(g) * kGB;
      const double lat = topo_.host_transfer_latency(g);
      h2d_[l] = std::make_unique<sim::Channel>(
          engine_, "h2d" + std::to_string(l), bw, lat);
      d2h_[l] = std::make_unique<sim::Channel>(
          engine_, "d2h" + std::to_string(l), bw, lat);
    }
  }
  // Peer channels are created lazily on first use (p2p_channel): a
  // 1024-device fat tree has ~10^6 directed pairs, of which a stencil
  // touches a few thousand.
  p2p_rows_.resize(n);

  // Kernel streams enable *submission* concurrency on real GPUs but share
  // the SMs: concurrent kernels time-slice rather than multiply throughput.
  // A single FIFO per device models the aggregate compute correctly.
  kernels_.reserve(n);
  for (int g = 0; g < n; ++g)
    kernels_.push_back(
        std::make_unique<sim::FifoResource>(engine_, "k" + std::to_string(g)));

  host_worker_ = std::make_unique<sim::FifoResource>(engine_, "host");

  caches_.reserve(n);
  for (int g = 0; g < n; ++g)
    caches_.push_back(std::make_unique<mem::DeviceCache>(
        g, opt_.device_capacity, opt_.eviction));
}

void Platform::set_obs(obs::Observability* o) {
  obs_ = o;
  for (int l = 0; l < topo_.num_host_links(); ++l) {
    if (!h2d_[l]) continue;
    h2d_[l]->set_probe(o ? o->make_link_probe("h2d" + std::to_string(l),
                                              "host", obs::LinkDir::kH2D, -1,
                                              l)
                         : nullptr);
    d2h_[l]->set_probe(o ? o->make_link_probe("d2h" + std::to_string(l),
                                              "host", obs::LinkDir::kD2H, l,
                                              -1)
                         : nullptr);
  }
  // Peer channels created after this call pick their probe up at creation
  // (p2p_channel); channels already materialised are walked here in sorted
  // pair order.
  for (int src = 0; src < static_cast<int>(p2p_rows_.size()); ++src)
    for (auto& [dst, ch] : p2p_rows_[src])
      ch->set_probe(o ? o->make_link_probe(
                            ch->name(),
                            obs::link_class_label(topo_.link_class(src, dst)),
                            obs::LinkDir::kP2P, src, dst)
                      : nullptr);
  host_worker_->set_probe(
      o ? o->make_link_probe("host", "host", obs::LinkDir::kHost, -1, -1)
        : nullptr);
}

sim::Channel& Platform::p2p_channel(int src, int dst) {
  auto& row = p2p_rows_[src];
  const auto it = p2p_slot(row, dst);
  if (it != row.end() && it->first == dst) return *it->second;
  auto ch = std::make_unique<sim::Channel>(
      engine_, "p2p" + std::to_string(src) + "-" + std::to_string(dst),
      topo_.gpu_bandwidth_gbps(src, dst) * kGB,
      topo_.transfer_latency(src, dst));
  if (obs_)
    ch->set_probe(obs_->make_link_probe(
        ch->name(), obs::link_class_label(topo_.link_class(src, dst)),
        obs::LinkDir::kP2P, src, dst));
  return *row.insert(it, {dst, std::move(ch)})->second;
}

void Platform::set_fault(fault::Injector* f) {
  fault_ = f;
  if (!f) return;
  fault::Injector::Hooks hooks;
  hooks.brownout = [this](int a, int b, double frac) {
    apply_link_brownout(a, b, frac);
  };
  hooks.restore = [this](int a, int b) { apply_link_heal(a, b); };
  hooks.link_down = [this](int a, int b) { apply_link_down(a, b); };
  hooks.resolve_device = [this](const std::string& name) {
    return topo_.device_index(name);
  };
  f->bind(std::move(hooks));
}

void Platform::sync_link_bandwidth(int a, int b) {
  // Only live channels need the mirror; a pair whose channel has not been
  // materialised yet will read the topology's current bandwidth when it is.
  for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
    auto& row = p2p_rows_[src];
    if (auto it = p2p_slot(row, dst); it != row.end() && it->first == dst)
      it->second->set_bandwidth(topo_.gpu_bandwidth_gbps(src, dst) * kGB);
  }
}

void Platform::apply_link_brownout(int a, int b, double fraction) {
  topo_.scale_link_bandwidth(a, b, fraction);
  sync_link_bandwidth(a, b);
  report_fault("brownout", "link " + std::to_string(a) + "-" +
                              std::to_string(b) + " at " +
                              std::to_string(fraction) + "x nominal");
}

void Platform::apply_link_heal(int a, int b) {
  topo_.restore_link(a, b);
  sync_link_bandwidth(a, b);
  report_fault("link_heal", "link " + std::to_string(a) + "-" +
                               std::to_string(b) + " restored to nominal");
}

void Platform::apply_link_down(int a, int b) {
  const topo::LinkClass c = topo_.demote_link(a, b);
  sync_link_bandwidth(a, b);
  report_fault("link_down", "link " + std::to_string(a) + "-" +
                               std::to_string(b) + " demoted to " +
                               topo::to_string(c));
}

void Platform::apply_device_failure(int g) {
  topo_.set_device_failed(g);
  report_fault("device_fail", "GPU " + std::to_string(g) + " failed");
  if (checker_) checker_->on_device_failure(g);
}

sim::Interval Platform::copy_h2d(int dev, std::size_t bytes,
                                 sim::Callback done) {
  const sim::Time t0 = engine_.now();
  auto iv = h2d_[topo_.host_link_of(dev)]->transfer(bytes, std::move(done));
  trace::Record rec{dev,   trace::OpKind::kHtoD, iv.start, iv.end,
                    bytes, 0.0,                  0,        "HtoD"};
  rec.queued = iv.start - t0;
  trace_.add(std::move(rec));
  return iv;
}

sim::Interval Platform::copy_d2h(int dev, std::size_t bytes,
                                 sim::Callback done) {
  const sim::Time t0 = engine_.now();
  auto iv = d2h_[topo_.host_link_of(dev)]->transfer(bytes, std::move(done));
  trace::Record rec{dev,   trace::OpKind::kDtoH, iv.start, iv.end,
                    bytes, 0.0,                  0,        "DtoH"};
  rec.queued = iv.start - t0;
  trace_.add(std::move(rec));
  return iv;
}

sim::Interval Platform::copy_p2p(int src, int dst, std::size_t bytes,
                                 sim::Callback done) {
  assert(topo_.link_class(src, dst) != topo::LinkClass::kNone &&
         "no peer path between GPUs");
  const sim::Time t0 = engine_.now();
  auto iv = p2p_channel(src, dst).transfer(bytes, std::move(done));
  // Peer traffic between GPUs that do not share a PCIe switch crosses the
  // host PCIe fabric (switch -> CPU -> QPI -> CPU -> switch) and therefore
  // steals bandwidth from concurrent host transfers on both end links.
  // NVLink peers bypass PCIe entirely.  This is the physical reason the
  // topology-aware heuristic matters: a rank-blind source choice that lands
  // on a PCIe path degrades the already-saturated host links.
  if (topo_.link_class(src, dst) == topo::LinkClass::kPCIeP2P &&
      topo_.host_link_of(src) != topo_.host_link_of(dst)) {
    d2h_[topo_.host_link_of(src)]->submit(iv.duration(), {});
    h2d_[topo_.host_link_of(dst)]->submit(iv.duration(), {});
  }
  trace::Record rec{dst,   trace::OpKind::kPtoP, iv.start, iv.end,
                    bytes, 0.0,                  0,
                    "PtoP from " + std::to_string(src)};
  rec.peer = src;
  rec.queued = iv.start - t0;
  trace_.add(std::move(rec));
  return iv;
}

sim::Interval Platform::launch_kernel(int dev, double seconds, double flops,
                                      const std::string& label,
                                      sim::Callback done, std::uint64_t task) {
  const sim::Time t0 = engine_.now();
  auto iv = kernels_[dev]->submit(seconds, std::move(done));
  trace::Record rec{dev, trace::OpKind::kKernel, iv.start, iv.end,
                    0,   flops,                  0,        label};
  rec.queued = iv.start - t0;
  trace_.add(std::move(rec));
  if (obs_) obs_->on_kernel(dev, label, iv);
  if (checker_) checker_->on_kernel_issue(task, dev, iv.start, iv.end);
  return iv;
}

sim::Interval Platform::host_work(double seconds, sim::Callback done) {
  return host_worker_->submit(seconds, std::move(done));
}

sim::Interval Platform::transfer(trace::OpKind k, const mem::DataHandle& h,
                                 int src, int dst, bool chained,
                                 sim::Callback done) {
  assert(k != trace::OpKind::kKernel && "a kernel is not a transfer");
  const std::size_t bytes = h.bytes();
  const bool h2d = k == trace::OpKind::kHtoD, p2p = k == trace::OpKind::kPtoP;
  const sim::Interval iv = h2d   ? copy_h2d(dst, bytes, std::move(done))
                           : p2p ? copy_p2p(src, dst, bytes, std::move(done))
                                 : copy_d2h(src, bytes, std::move(done));
  ++(h2d ? stats_.h2d : p2p ? stats_.d2d : stats_.d2h);
  if (checker_) checker_->on_transfer_issue(k, &h, src, dst, iv.start, iv.end);
  if (obs_) obs_->on_transfer(k, h.id, src, dst, iv, bytes, chained);
  return iv;
}

void Platform::report_source(const mem::DataHandle& h, int dst,
                             trace::SourceKind k, int src, bool forced) {
  if (k == trace::SourceKind::kNone) {
    if (obs_) obs_->count_fault("parked_fetch");
    return;
  }
  if (k == trace::SourceKind::kWaitDevice)
    ++(forced ? stats_.forced_waits : stats_.optimistic_waits);
  if (obs_) {
    obs::Decision d;
    d.t = engine_.now();
    d.handle = h.id;
    d.dst = dst;
    d.pick = k;
    d.picked_dev = src;
    d.forced = forced;
    // The ledger's candidate order: valid replicas, then receptions other
    // than dst's, each ascending by device.
    d.candidates.reserve(h.dev.active());
    for (const auto& [g, r] : h.dev)
      if (r.state == mem::ReplicaState::kValid)
        d.candidates.push_back({g, topo_.p2p_perf_rank(g, dst), false});
    for (const auto& [g, r] : h.dev)
      if (r.state == mem::ReplicaState::kInFlight && g != dst)
        d.candidates.push_back({g, topo_.p2p_perf_rank(g, dst), true});
    obs_->on_decision(std::move(d));
  }
  if (checker_) checker_->on_source_choice(&h, dst, k, src, forced);
}

void Platform::report_evict(const mem::DataHandle& h, int dev, bool dirty) {
  if (dirty) ++stats_.evict_flushes;
  if (checker_) checker_->on_evict(&h, dev, dirty);
  if (obs_) obs_->on_evict(dev, dirty);
}

void Platform::report_abort(trace::OpKind k, const mem::DataHandle& h, int src,
                            int dst, int attempts, int cap,
                            std::string detail) {
  ++stats_.transfer_aborts;
  if (checker_)
    checker_->on_transfer_abort(k, &h, src, dst,
                                static_cast<std::size_t>(attempts),
                                static_cast<std::size_t>(cap));
  report_fault("transfer_abort", std::move(detail));
}

}  // namespace xkb::rt
