// xkb::wl -- generic task-graph workloads.
//
// The paper evaluates its two runtime heuristics (topology-aware source
// selection, optimistic D2D forwarding) on six BLAS-3 routines, but both are
// properties of the *data-flow runtime*, not of BLAS.  This subsystem feeds
// arbitrary tiled task graphs through the same runtime, so any multi-GPU
// traffic pattern can exercise -- and be measured under -- the heuristics:
//
//   * parametric generators in the task-bench family (trivial, stencil_1d,
//     nearest, fft, tree, random), each width x depth with per-task FLOPs
//     and per-tile bytes;
//   * a `dnn` generator building forward/backward layer pipelines with
//     data-parallel weight broadcast and weight-gradient reduction trees
//     (libdnn-style), the traffic shape of multi-GPU training;
//   * a `composition` capture of the paper's Fig. 8 TRSM+GEMM graph,
//     bit-identical to the baselines composition plan (run_composition);
//   * a small text DAG format (.wlg) with line-precise parse errors and a
//     canonical writer, so external traces can be replayed.
//
// A graph is pure data (tiles + tasks + rt::Access modes); workload/bridge.hpp
// maps it onto rt::Runtime tasks and mem::Registry handles, which is what
// makes xkb::check invariants, xkb::obs capture and xkb::fault recovery
// apply unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/task.hpp"

namespace xkb::wl {

/// One logical tile: a dense m x n array of `wordsize`-byte elements.  The
/// bridge interns one mem::DataHandle per tile, so replicas, coherence and
/// eviction behave exactly as for a BLAS matrix tile.
struct TileSpec {
  std::size_t m = 0, n = 0, wordsize = 8;
  std::size_t bytes() const { return m * n * wordsize; }
  bool operator==(const TileSpec&) const = default;
};

struct TaskAccessSpec {
  std::uint32_t tile = 0;
  rt::Access mode = rt::Access::kR;
  bool operator==(const TaskAccessSpec&) const = default;
};

/// One task: label + cost model + ordered tile accesses.  Dependencies are
/// *derived* by the runtime from access modes in submission order (readers
/// after the last writer, writers after all readers), exactly as for BLAS.
struct TaskSpec {
  std::string label;
  std::vector<TaskAccessSpec> accesses;
  double flops = 0.0;
  std::size_t min_dim = 0;   ///< limiting dimension for the efficiency curve
  double eff_factor = 1.0;   ///< kernel-quality multiplier vs peak GEMM
  /// Placement coordinates: generators use (point-in-layer, layer); the
  /// composition capture uses the output tile's (i, j) grid position.  The
  /// run harness maps them to a home device (owner-computes) or a forced
  /// device (static baselines).
  std::size_t place_i = 0, place_j = 0;
  bool operator==(const TaskSpec&) const = default;

  /// The first written (kW/kRW) access, or -1: the tile whose placement
  /// coordinate anchors the task (owner-computes "output tile").
  int out_access() const {
    for (std::size_t a = 0; a < accesses.size(); ++a)
      if (accesses[a].mode != rt::Access::kR) return static_cast<int>(a);
    return -1;
  }
};

struct WorkloadGraph {
  std::string name;
  std::vector<TileSpec> tiles;   ///< creation order == handle intern order
  std::vector<TaskSpec> tasks;   ///< submission order
  /// Tiles flushed to the host after the last task (lazy coherency made
  /// explicit, like xkblas_memory_coherent_async on the results).
  std::vector<std::uint32_t> coherent;
  /// Placement hint for the run harness: true = map place coords through
  /// the (P, Q) block-cyclic grid (composition capture, matches the BLAS
  /// emitters); false = layered graph, spread points round-robin.
  bool grid_placement = false;

  std::uint32_t add_tile(std::size_t m, std::size_t n,
                         std::size_t wordsize = 8) {
    tiles.push_back({m, n, wordsize});
    return static_cast<std::uint32_t>(tiles.size() - 1);
  }

  double total_flops() const;
  /// Number of read (kR/kRW) accesses: the data-flow edge count.
  std::size_t edge_count() const;
  /// Tiles whose first access in task order is a read: external inputs,
  /// valid on the host at t=0 (and pre-distributed in data-on-device runs).
  std::vector<std::uint32_t> input_tiles() const;

  /// Reject malformed graphs (out-of-range tile ids, empty access lists,
  /// degenerate tiles) with an actionable std::invalid_argument naming the
  /// offending task/tile.
  void validate() const;

  bool operator==(const WorkloadGraph&) const = default;
};

/// The parametric generator family.
enum class Generator : std::uint8_t {
  kTrivial,    ///< width x depth independent tasks (embarrassingly parallel)
  kStencil1d,  ///< each point reads {p-1, p, p+1} of the previous layer
  kNearest,    ///< each point reads the previous layer within `radix`
  kFft,        ///< butterfly: {p, p XOR 2^(t-1 mod log2 width)}
  kTree,       ///< binary reduction, width halves per layer
  kRandom,     ///< seeded Erdos-Renyi layer-to-layer edges (prob, >= 1 dep)
  kDnn,        ///< fwd/bwd layer pipeline + weight-gradient reduction
  kComposition,///< the Fig. 8 TRSM+GEMM graph (n, tile)
};

const char* to_string(Generator g);

/// All accepted generator names, in declaration order (CLI error messages).
std::vector<std::string> generator_names();

/// A parsed workload specification, e.g.
///   "stencil_1d:width=16,depth=32,flops=5e8,bytes=4194304,seed=7"
///   "dnn:width=8,depth=12"
///   "composition:n=16384,tile=2048"
struct WorkloadSpec {
  Generator kind = Generator::kStencil1d;
  std::size_t width = 8;     ///< points per layer (dnn: data-parallel shards)
  std::size_t depth = 8;     ///< layers (dnn: network layers)
  double flops = 5e8;        ///< per compute task
  std::size_t bytes = 4u << 20;  ///< per tile (rounded to a square tile)
  std::uint64_t seed = 42;   ///< master seed (random/dnn substreams)
  std::size_t radix = 2;     ///< nearest: neighbourhood half-width
  double prob = 0.15;        ///< random: edge probability
  std::size_t n = 8192, tile = 2048;  ///< composition only

  /// Canonical spec string (parse(to_string()) round-trips).
  std::string to_string() const;

  /// Parse "name:key=value,...".  Unknown generator names and keys throw
  /// std::invalid_argument listing every accepted value.
  static WorkloadSpec parse(const std::string& text);
};

/// Build the graph for `spec`; throws std::invalid_argument on degenerate
/// parameters (zero width/depth, oversized graphs).
WorkloadGraph build(const WorkloadSpec& spec);

/// The Fig. 8 composition (TRSM then GEMM on shared B), captured as a
/// workload graph.  Tile-creation and task-submission order replicate
/// blas::tiled_trsm + blas::tiled_gemm exactly, so bridging this graph into
/// the run skeleton as a workload reproduces baselines::run_composition's
/// event stream bit for bit (asserted by test_workload.cpp).
WorkloadGraph composition_graph(std::size_t n, std::size_t tile);

// --- .wlg text DAG format ------------------------------------------------
//
//   workload <name>
//   tile <id> <m> <n> <wordsize>
//   task <label> <flops> <min_dim> <eff_factor> <place_i> <place_j>
//        <mode>:<tile> [...]        (one line; mode in {r, w, rw})
//   coherent <tile> [...]
//   grid-placement                  # optional, sets grid_placement
//
// '#' starts a comment; blank lines are ignored.  write_wlg emits the
// canonical form; write_wlg(parse_wlg(text)) == text for canonical files.

std::string write_wlg(const WorkloadGraph& g);

/// Parse the text format; throws std::invalid_argument as
/// "<origin>:<line>: <directive>: field '<name>': ..." on malformed input.
WorkloadGraph parse_wlg(const std::string& text,
                        const std::string& origin = "<wlg>");
WorkloadGraph parse_wlg_file(const std::string& path);

}  // namespace xkb::wl
