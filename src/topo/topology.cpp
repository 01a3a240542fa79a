#include "topo/topology.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "tdl/presets.hpp"
#include "tdl/tpo.hpp"

namespace xkb::topo {

namespace {

/// Orders attachments by the fields fabric() reads.
bool attach_less(const tdl::Attach& x, const tdl::Attach& y) {
  return std::tie(x.infra, x.cls, x.bw_gbps, x.lat_s, x.rank) <
         std::tie(y.infra, y.cls, y.bw_gbps, y.lat_s, y.rank);
}

/// Position of `peer` in a direct-link row sorted by peer.
template <typename Row>
auto peer_slot(Row& row, int peer) {
  return std::lower_bound(row.begin(), row.end(), peer,
                          [](const auto& d, int p) { return d.peer < p; });
}

}  // namespace

Topology Topology::from_machine(const tdl::Machine& m) {
  tdl::Routed r = tdl::route(m);
  Topology t;
  t.machine_ = m;
  t.name_ = r.machine_name;
  t.num_gpus_ = r.num_devices;
  t.dev_names_ = std::move(r.dev_names);
  t.local_bw_gbps_ = std::move(r.local_bw_gbps);
  t.direct_.resize(static_cast<std::size_t>(t.num_gpus_));
  std::vector<std::size_t> degree(t.direct_.size(), 0);
  for (const auto& [key, pm] : r.direct) {
    ++degree[static_cast<std::size_t>(key.first)];
    ++degree[static_cast<std::size_t>(key.second)];
  }
  for (std::size_t g = 0; g < degree.size(); ++g) t.direct_[g].reserve(degree[g]);
  // Ascending (min, max) keys append each row in ascending peer order.
  for (const auto& [key, pm] : r.direct) {
    t.direct_[static_cast<std::size_t>(key.first)].push_back({key.second, pm});
    t.direct_[static_cast<std::size_t>(key.second)].push_back({key.first, pm});
  }
  t.attach_ = std::move(r.attach);
  t.infra_ = std::move(r.infra);
  t.host_link_of_ = std::move(r.host_link_of);
  t.host_bw_gbps_ = std::move(r.host_bw_gbps);
  t.host_lat_s_ = std::move(r.host_lat_s);
  t.num_host_links_ = r.num_host_links;
  t.latency_s_ = r.default_latency_s;
  t.pcie_fallback_gbps_ = r.pcie_fallback_gbps;
  t.assign_attach_classes();
  return t;
}

void Topology::assign_attach_classes() {
  const auto list_less = [this](int x, int y) {
    const auto& ax = attach_[static_cast<std::size_t>(x)];
    const auto& ay = attach_[static_cast<std::size_t>(y)];
    return std::lexicographical_compare(ax.begin(), ax.end(), ay.begin(),
                                        ay.end(), attach_less);
  };
  std::vector<int> order(static_cast<std::size_t>(num_gpus_));
  for (int g = 0; g < num_gpus_; ++g) order[static_cast<std::size_t>(g)] = g;
  std::sort(order.begin(), order.end(), list_less);
  attach_class_.assign(order.size(), -1);
  class_device_.clear();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || list_less(order[i - 1], order[i]))
      class_device_.push_back(order[i]);
    attach_class_[static_cast<std::size_t>(order[i])] =
        static_cast<int>(class_device_.size()) - 1;
  }
  class_routes_.assign(class_device_.size(), {});
}

Topology Topology::from_tpo_text(const std::string& text,
                                 const std::string& origin) {
  return from_machine(tdl::parse_tpo(text, origin));
}

Topology Topology::from_tpo_file(const std::string& path) {
  return from_machine(tdl::parse_tpo_file(path));
}

Topology Topology::dgx1() { return from_machine(tdl::dgx1_machine()); }

Topology Topology::pcie_only(int num_gpus) {
  return from_machine(tdl::pcie_only_machine(num_gpus));
}

Topology Topology::nvswitch(int num_gpus, double gpu_gpu_gbps) {
  return from_machine(tdl::nvswitch_machine(num_gpus, gpu_gpu_gbps));
}

Topology Topology::summit_like() {
  return from_machine(tdl::summit_like_machine());
}

int Topology::device_index(const std::string& name) const {
  for (std::size_t g = 0; g < dev_names_.size(); ++g)
    if (dev_names_[g] == name) return static_cast<int>(g);
  return -1;
}

const std::vector<tdl::PathMetrics>& Topology::fabric_row(int infra) const {
  auto it = fabric_rows_.find(infra);
  if (it == fabric_rows_.end())
    it = fabric_rows_
             .emplace(infra, tdl::widest_paths(infra_, infra, false))
             .first;
  return it->second;
}

tdl::PathMetrics Topology::fabric(int a, int b) const {
  tdl::PathMetrics best;  // bw 0 = unreachable
  for (const tdl::Attach& aa : attach_[static_cast<std::size_t>(a)]) {
    const tdl::PathMetrics head =
        tdl::extend(tdl::identity_path(), aa.cls, aa.bw_gbps, aa.lat_s,
                    aa.rank);
    for (const tdl::Attach& ab : attach_[static_cast<std::size_t>(b)]) {
      tdl::PathMetrics cand;
      if (aa.infra == ab.infra) {
        cand = tdl::extend(head, ab.cls, ab.bw_gbps, ab.lat_s, ab.rank);
      } else {
        const tdl::PathMetrics& mid =
            fabric_row(aa.infra)[static_cast<std::size_t>(ab.infra)];
        if (!mid.ok()) continue;
        cand = head;
        cand.cls = std::max(cand.cls, mid.cls);
        cand.bw_gbps = std::min(cand.bw_gbps, mid.bw_gbps);
        cand.lat_s = std::max(cand.lat_s, mid.lat_s);
        cand.rank = std::min(cand.rank, mid.rank);
        cand.hops += mid.hops;
        cand = tdl::extend(cand, ab.cls, ab.bw_gbps, ab.lat_s, ab.rank);
      }
      if (!best.ok() || tdl::path_better(cand, best)) best = cand;
    }
  }
  return best;
}

const tdl::PathMetrics& Topology::class_fabric(int a, int b) const {
  const std::size_t ca =
      static_cast<std::size_t>(attach_class_[static_cast<std::size_t>(a)]);
  const std::size_t cb =
      static_cast<std::size_t>(attach_class_[static_cast<std::size_t>(b)]);
  std::vector<tdl::PathMetrics>& row = class_routes_[ca];
  if (row.empty()) {
    tdl::PathMetrics unrouted;
    unrouted.hops = -1;
    row.assign(class_device_.size(), unrouted);
  }
  tdl::PathMetrics& pm = row[cb];
  if (pm.hops < 0) pm = fabric(class_device_[ca], class_device_[cb]);
  return pm;
}

const tdl::PathMetrics* Topology::find_direct(int a, int b) const {
  const auto& row = direct_[static_cast<std::size_t>(a)];
  const auto it = peer_slot(row, b);
  return it != row.end() && it->peer == b ? &it->m : nullptr;
}

void Topology::set_direct(int a, int b, const tdl::PathMetrics& m) {
  for (const auto& [x, y] : {std::pair<int, int>{a, b}, {b, a}}) {
    auto& row = direct_[static_cast<std::size_t>(x)];
    const auto it = peer_slot(row, y);
    if (it != row.end() && it->peer == y)
      it->m = m;
    else
      row.insert(it, DirectLink{y, m});
  }
}

void Topology::erase_direct(int a, int b) {
  for (const auto& [x, y] : {std::pair<int, int>{a, b}, {b, a}}) {
    auto& row = direct_[static_cast<std::size_t>(x)];
    const auto it = peer_slot(row, y);
    if (it != row.end() && it->peer == y) row.erase(it);
  }
}

tdl::PathMetrics Topology::pair(int a, int b) const {
  if (a == b) {
    tdl::PathMetrics pm;
    pm.cls = LinkClass::kSelf;
    pm.bw_gbps = local_bw_gbps_[static_cast<std::size_t>(a)];
    pm.lat_s = 0.0;
    pm.rank = tdl::default_rank(LinkClass::kSelf);
    return pm;
  }
  if (const tdl::PathMetrics* d = find_direct(a, b)) return *d;
  return class_fabric(a, b);
}

LinkClass Topology::link_class(int src, int dst) const {
  return pair(src, dst).cls;
}

double Topology::gpu_bandwidth_gbps(int src, int dst) const {
  return pair(src, dst).bw_gbps;
}

int Topology::p2p_perf_rank(int src, int dst) const {
  if (device_failed(src) || device_failed(dst)) return 0;
  const tdl::PathMetrics pm = pair(src, dst);
  if (!pm.ok()) return 0;
  return std::min(pm.rank, tdl::default_rank(LinkClass::kSelf));
}

double Topology::transfer_latency(int src, int dst) const {
  if (src == dst) return 0.0;
  return pair(src, dst).lat_s;
}

std::vector<int> Topology::peers_by_rank(int dst) const {
  std::vector<int> peers;
  peers.reserve(static_cast<std::size_t>(num_gpus_ > 0 ? num_gpus_ - 1 : 0));
  for (int g = 0; g < num_gpus_; ++g)
    if (g != dst) peers.push_back(g);
  std::stable_sort(peers.begin(), peers.end(), [&](int a, int b) {
    return p2p_perf_rank(a, dst) > p2p_perf_rank(b, dst);
  });
  return peers;
}

bool Topology::begin_mutation(int a, int b, tdl::PathMetrics& cur) {
  const tdl::PathMetrics* d = find_direct(a, b);
  cur = d ? *d : class_fabric(a, b);
  if (!d && !cur.ok()) return false;  // no route at all: nothing to mutate
  nominal_.emplace(norm(a, b), Nominal{d != nullptr, cur});
  return true;
}

LinkClass Topology::demote_link(int a, int b) {
  assert(a != b && a >= 0 && b >= 0 && a < num_gpus_ && b < num_gpus_);
  tdl::PathMetrics e;
  const tdl::PathMetrics cur = pair(a, b);
  switch (cur.cls) {
    case LinkClass::kNVLink2:
      begin_mutation(a, b, e);
      // One of the two bonded lanes retires: half the nominal pair rate.
      e.cls = LinkClass::kNVLink1;
      e.bw_gbps = nominal_.at(norm(a, b)).m.bw_gbps * 0.5;
      e.rank = tdl::default_rank(LinkClass::kNVLink1);
      set_direct(a, b, e);
      return e.cls;
    case LinkClass::kNVLink1:
      begin_mutation(a, b, e);
      e.cls = LinkClass::kPCIeP2P;
      e.bw_gbps = pcie_fallback_gbps_;
      e.rank = tdl::default_rank(LinkClass::kPCIeP2P);
      set_direct(a, b, e);
      return e.cls;
    case LinkClass::kPCIeP2P:  // the floor: the fabric route remains
    case LinkClass::kNIC:
    case LinkClass::kSelf:
    case LinkClass::kNone:
      return cur.cls;
  }
  return cur.cls;
}

void Topology::scale_link_bandwidth(int a, int b, double fraction) {
  assert(a != b && fraction > 0.0);
  tdl::PathMetrics e;
  if (!begin_mutation(a, b, e)) return;
  e.bw_gbps = nominal_.at(norm(a, b)).m.bw_gbps * fraction;
  set_direct(a, b, e);
}

void Topology::restore_link(int a, int b) {
  assert(a != b);
  const auto it = nominal_.find(norm(a, b));
  if (it == nominal_.end()) return;  // never mutated: nothing to heal
  if (it->second.had_direct)
    set_direct(a, b, it->second.m);
  else
    erase_direct(a, b);  // fabric pair: drop the override again
}

void Topology::set_device_failed(int gpu) {
  assert(gpu >= 0 && gpu < num_gpus_);
  if (failed_.empty()) failed_.assign(static_cast<std::size_t>(num_gpus_), 0);
  failed_[static_cast<std::size_t>(gpu)] = 1;
}

int Topology::num_alive_gpus() const {
  if (failed_.empty()) return num_gpus_;
  int n = 0;
  for (int g = 0; g < num_gpus_; ++g)
    if (!device_failed(g)) ++n;
  return n;
}

std::size_t Topology::sparse_bytes() const {
  // Map nodes cost key + value + ~3 pointers of bookkeeping each.
  constexpr std::size_t kNode = 3 * sizeof(void*);
  std::size_t total = 0;
  for (const auto& row : direct_) total += row.size() * sizeof(DirectLink);
  total += direct_.size() * sizeof(std::vector<DirectLink>);
  total += nominal_.size() *
           (sizeof(std::pair<int, int>) + sizeof(Nominal) + kNode);
  for (const auto& at : attach_) total += at.size() * sizeof(tdl::Attach);
  total += attach_.size() * sizeof(std::vector<tdl::Attach>);
  for (const auto& adj : infra_.adj)
    total += adj.size() * sizeof(tdl::InfraEdge);
  total += infra_.adj.size() *
           (sizeof(std::vector<tdl::InfraEdge>) + sizeof(char));
  for (const auto& [k, row] : fabric_rows_) {
    (void)k;
    total += row.size() * sizeof(tdl::PathMetrics) + kNode + sizeof(int);
  }
  total += (attach_class_.size() + class_device_.size()) * sizeof(int);
  for (const auto& row : class_routes_)
    total += row.size() * sizeof(tdl::PathMetrics);
  total += class_routes_.size() * sizeof(std::vector<tdl::PathMetrics>);
  total += host_link_of_.size() * sizeof(int);
  total += host_bw_gbps_.size() * sizeof(double);
  total += host_lat_s_.size() * sizeof(double);
  total += local_bw_gbps_.size() * sizeof(double);
  total += failed_.size();
  return total;
}

std::size_t Topology::dense_bytes(int num_gpus) {
  const std::size_t n = static_cast<std::size_t>(num_gpus);
  // The historical representation: n*n link classes and n*n bandwidths
  // (doubled again by the nominal snapshot after the first fault mutation).
  return n * n * (sizeof(LinkClass) + sizeof(double));
}

}  // namespace xkb::topo
