// Interconnect topology models of multi-GPU (and multi-node) machines.
//
// Historically this class carried hardwired n*n tables for one DGX-1 plus
// three ad-hoc presets.  It is now a *routed view* over an xkb::tdl machine
// graph: a .tpo description (or a preset builder) declares devices, hosts,
// switches and links, and every quantity served here -- link_class,
// gpu_bandwidth_gbps, p2p_perf_rank, host_link_of, transfer latencies -- is
// derived from shortest-bottleneck paths over that graph (tdl/routing.hpp).
// The DGX-1 of the paper's Fig. 1/2 is just presets/dgx1.tpo, and routing
// reproduces its historical tables bit-identically (pinned by
// test_topology and the determinism hashes).
//
// Representation is sparse: a row of direct links per device, a per-device
// attachment list, and lazily computed fabric rows over the small
// switch/host graph.  A fabric route depends only on the two attachment
// lists, so devices with equal lists share one attachment class and every
// class pair is routed once, on first query.  A 1024-device fat tree never
// materialises a 1024x1024 table; memory is O(active links + queried class
// pairs), which tools/topo_bench gates.
//
// `p2p_perf_rank` mirrors CUDA's cuDeviceGetP2PAttribute(
// CU_DEVICE_P2P_ATTRIBUTE_PERFORMANCE_RANK): a relative ordering of link
// quality that the topology-aware heuristic consumes -- the heuristic never
// sees raw bandwidths, exactly as in the paper.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tdl/machine.hpp"
#include "tdl/routing.hpp"

namespace xkb::topo {

using tdl::LinkClass;
using tdl::to_string;

class Topology {
 public:
  /// The DGX-1 machine of the paper (Table I / Figs. 1-2).
  static Topology dgx1();

  /// A node whose GPUs only share PCIe (no NVLink): the "worst case" for the
  /// topology heuristic, used by ablation benches.
  static Topology pcie_only(int num_gpus);

  /// An NVSwitch-style all-to-all node (DGX-2/A100-like): every pair enjoys
  /// the same high-bandwidth link, so source selection is rank-insensitive.
  static Topology nvswitch(int num_gpus, double gpu_gpu_gbps = 240.0);

  /// A Summit/Sierra-like node: NVLink between CPU and GPU (50 GB/s per
  /// GPU), GPUs grouped per socket.  The paper predicts the optimistic
  /// heuristic gains little here because host links are no longer the
  /// bottleneck -- paper_report's ext_topologies section tests that
  /// prediction.
  static Topology summit_like();

  /// Route any machine description (throws std::invalid_argument if some
  /// device cannot reach a host).
  static Topology from_machine(const tdl::Machine& m);
  static Topology from_tpo_text(const std::string& text,
                                const std::string& origin);
  static Topology from_tpo_file(const std::string& path);

  int num_gpus() const { return num_gpus_; }
  const std::string& name() const { return name_; }

  /// The machine description this topology was routed from (canonical
  /// source for write_tpo round-trips and tools).
  const tdl::Machine& machine() const { return machine_; }

  /// Device node name ("gpu3"), and the inverse lookup (-1 if unknown) --
  /// fault plans may target links by device name instead of index.
  const std::string& device_name(int gpu) const {
    return dev_names_[static_cast<std::size_t>(gpu)];
  }
  int device_index(const std::string& name) const;

  LinkClass link_class(int src, int dst) const;

  /// Measured unidirectional bandwidth in GB/s between device memories
  /// (src==dst gives local memory bandwidth).
  double gpu_bandwidth_gbps(int src, int dst) const;

  /// Relative link performance rank for P2P copies: higher is better,
  /// 0 means no peer access.  Analogous to cuDeviceGetP2PAttribute.
  int p2p_perf_rank(int src, int dst) const;

  /// Index of the host link (PCIe switch or NVLink brick) a GPU hangs off.
  /// GPUs may share a host link (DGX-1: two GPUs per PCIe switch).
  int host_link_of(int gpu) const {
    return host_link_of_[static_cast<std::size_t>(gpu)];
  }
  int num_host_links() const { return num_host_links_; }
  /// Unidirectional host<->GPU bandwidth of that link, GB/s.
  double host_bandwidth_gbps(int gpu) const {
    return host_bw_gbps_[static_cast<std::size_t>(gpu)];
  }

  /// Default per-transfer DMA latency (seconds) of this machine.
  double transfer_latency() const { return latency_s_; }
  /// Per-route latency: the MAX of per-link latencies along the path (DMA
  /// setup overlaps stage-by-stage; an all-default graph reports exactly
  /// the global value).
  double transfer_latency(int src, int dst) const;
  /// Latency of the GPU's host link route.
  double host_transfer_latency(int gpu) const {
    return host_lat_s_[static_cast<std::size_t>(gpu)];
  }

  /// GPUs sorted by decreasing link quality from `dst`'s perspective,
  /// excluding `dst` itself (helper for the topology-aware heuristic).
  std::vector<int> peers_by_rank(int dst) const;

  // --- dynamic link state (xkb::fault) -------------------------------------
  //
  // A topology is immutable hardware description until a fault plan starts
  // mutating it.  Mutations are graph-edge operations on the routed pair:
  // the first mutation of a pair snapshots its nominal metrics so brownouts
  // can be healed and demotions expressed as fractions of the machine's
  // real capability.  A mutated fabric pair materialises a sparse override
  // entry; healing removes it again.  Mutations re-shape `p2p_perf_rank`
  // (and therefore `choose_source` / dmdas ETA estimates) immediately; the
  // Platform mirrors the bandwidth changes onto the live sim::Channels.

  /// Demote a P2P route one step down the paper's link hierarchy:
  /// 2xNVLink -> 1xNVLink (half nominal bandwidth) -> PCIe fabric fallback.
  /// PCIe (and NIC) is the floor -- total disconnection of a *device* is
  /// modelled by set_device_failed, not by removing routes.  Returns the
  /// new class.
  LinkClass demote_link(int a, int b);

  /// Brownout: scale the link's bandwidth to `fraction` of nominal without
  /// changing its class (lane error retraining throttles throughput before
  /// the driver re-routes).  `restore_link` heals class and bandwidth.
  void scale_link_bandwidth(int a, int b, double fraction);
  void restore_link(int a, int b);

  /// Blacklist a device: every route touching it reports p2p_perf_rank 0.
  void set_device_failed(int gpu);
  bool device_failed(int gpu) const {
    return !failed_.empty() && failed_[static_cast<std::size_t>(gpu)] != 0;
  }
  int num_alive_gpus() const;

  /// Bandwidth of the PCIe fabric a demoted route falls back to, GB/s.
  double pcie_fallback_gbps() const { return pcie_fallback_gbps_; }

  // --- scale accounting (tools/topo_bench memory gate) ---------------------

  /// Bytes held by the sparse routing state (direct-link rows + overrides,
  /// attachment lists and classes, infra graph, cached fabric rows and
  /// class-pair routes).  The dense counterfactual is dense_bytes(): n*n
  /// link-class + bandwidth tables.
  std::size_t sparse_bytes() const;
  static std::size_t dense_bytes(int num_gpus);
  /// Number of lazily materialised fabric rows (grows with *used* routes).
  std::size_t fabric_rows_cached() const { return fabric_rows_.size(); }

 private:
  Topology() = default;

  /// Routed metrics for a pair: the direct link if one exists (authoritative,
  /// including fault overrides), otherwise the best fabric route.
  tdl::PathMetrics pair(int a, int b) const;
  /// The best fabric route between two devices' attachment lists.
  tdl::PathMetrics fabric(int a, int b) const;
  /// fabric() of the pair's attachment classes, routed on first query.
  const tdl::PathMetrics& class_fabric(int a, int b) const;
  const std::vector<tdl::PathMetrics>& fabric_row(int infra) const;
  std::pair<int, int> norm(int a, int b) const {
    return {a < b ? a : b, a < b ? b : a};
  }

  /// One entry of a device's direct-link row.
  struct DirectLink {
    int peer = -1;
    tdl::PathMetrics m;
  };
  const tdl::PathMetrics* find_direct(int a, int b) const;
  /// Insert or overwrite the pair's entry in both devices' rows.
  void set_direct(int a, int b, const tdl::PathMetrics& m);
  void erase_direct(int a, int b);
  /// The pair's current metrics for mutation; snapshots its nominal metrics
  /// on first mutation.  False for pairs with no route at all.
  bool begin_mutation(int a, int b, tdl::PathMetrics& cur);
  /// Group devices by attachment list (sorted, not pairwise compared).
  void assign_attach_classes();

  tdl::Machine machine_;
  std::string name_;
  int num_gpus_ = 0;
  std::vector<std::string> dev_names_;
  std::vector<double> local_bw_gbps_;

  /// Per device, its direct links and fault overrides, sorted by peer; a
  /// pair's entry appears in both rows.
  std::vector<std::vector<DirectLink>> direct_;
  struct Nominal {
    bool had_direct = false;
    tdl::PathMetrics m;
  };
  std::map<std::pair<int, int>, Nominal> nominal_;  // per mutated pair

  std::vector<std::vector<tdl::Attach>> attach_;
  tdl::InfraGraph infra_;
  mutable std::map<int, std::vector<tdl::PathMetrics>> fabric_rows_;
  /// Per device, the index of its attachment class, and per class one
  /// device holding that list.
  std::vector<int> attach_class_;
  std::vector<int> class_device_;
  /// Per queried source class, the route to every class (hops < 0 until
  /// routed).  Mutations never touch it: they write direct rows.
  mutable std::vector<std::vector<tdl::PathMetrics>> class_routes_;

  std::vector<char> failed_;  // empty until first device failure
  std::vector<int> host_link_of_;
  std::vector<double> host_bw_gbps_;
  std::vector<double> host_lat_s_;
  int num_host_links_ = 0;
  double latency_s_ = 10e-6;
  double pcie_fallback_gbps_ = 17.2;
};

}  // namespace xkb::topo
