// Parametric task-graph generators (the task-bench family + a libdnn-style
// DNN pipeline) and the Fig. 8 composition capture.
//
// Every generator is deterministic from its WorkloadSpec: the seeded ones
// (random, dnn) draw from per-generator Rng sub-streams keyed by the
// generator name, so building one workload never perturbs the edges of
// another built from the same master seed.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace xkb::wl {

namespace {

using rt::Access;

/// Side of the (square) tile holding ~`bytes` of `wordsize`-byte elements.
std::size_t tile_side(std::size_t bytes, std::size_t wordsize) {
  const double elems = static_cast<double>(bytes) /
                       static_cast<double>(wordsize);
  const auto side = static_cast<std::size_t>(std::lround(std::sqrt(elems)));
  return side == 0 ? 1 : side;
}

std::size_t ceil_log2(std::size_t x) {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < x) ++l;
  return l;
}

void check_size(const WorkloadSpec& spec, std::size_t tasks) {
  if (spec.width == 0 || spec.depth == 0)
    throw std::invalid_argument("workload '" + spec.to_string() +
                                "': width and depth must be positive");
  constexpr std::size_t kMaxTasks = 500000;
  if (tasks > kMaxTasks)
    throw std::invalid_argument(
        "workload '" + spec.to_string() + "': " + std::to_string(tasks) +
        " tasks exceed the " + std::to_string(kMaxTasks) + " cap");
}

/// Shared skeleton of the layered generators: width points per layer, depth
/// layers; layer 0 reads its *input* halo (the dependency pattern applied to
/// the external input tiles -- the first sweep needs its neighbours too, and
/// since inputs stay host-valid after a data-on-device distribution these
/// remote reads are where the optimistic-forwarding heuristic bites); every
/// task writes its own output tile; the last layer's outputs are made
/// coherent.  `deps(t, p)` returns the points of layer t-1 (the inputs, for
/// t == 0) that task (t, p) reads (ascending, deduplicated by the caller;
/// empty at t == 0 means "own input only").
template <typename DepsFn>
WorkloadGraph layered(const WorkloadSpec& spec, DepsFn deps) {
  check_size(spec, spec.width * spec.depth);
  WorkloadGraph g;
  g.name = spec.to_string();
  const std::size_t side = tile_side(spec.bytes, 8);
  const char* label = to_string(spec.kind);

  std::vector<std::uint32_t> inputs;
  for (std::size_t p = 0; p < spec.width; ++p)
    inputs.push_back(g.add_tile(side, side));

  std::vector<std::uint32_t> prev;  // output tiles of the previous layer
  for (std::size_t t = 0; t < spec.depth; ++t) {
    std::vector<std::uint32_t> cur;
    for (std::size_t p = 0; p < spec.width; ++p) {
      TaskSpec task;
      task.label = label;
      task.flops = spec.flops;
      task.min_dim = side;
      task.place_i = p;
      task.place_j = t;
      if (t == 0) {
        std::vector<std::size_t> d = deps(0, p);
        if (d.empty()) d.push_back(p);
        for (std::size_t q : d)
          task.accesses.push_back({inputs[q], Access::kR});
      } else {
        for (std::size_t q : deps(t, p))
          task.accesses.push_back({prev[q], Access::kR});
      }
      const std::uint32_t out = g.add_tile(side, side);
      task.accesses.push_back({out, Access::kW});
      cur.push_back(out);
      g.tasks.push_back(std::move(task));
    }
    prev = std::move(cur);
  }
  g.coherent = prev;
  return g;
}

WorkloadGraph gen_trivial(const WorkloadSpec& spec) {
  // task-bench's TRIVIAL: no inter-task dependencies at all -- the pure
  // compute-scaling control (layer 0 still loads its inputs).
  return layered(spec, [](std::size_t, std::size_t) {
    return std::vector<std::size_t>{};
  });
}

WorkloadGraph gen_stencil(const WorkloadSpec& spec) {
  const std::size_t W = spec.width;
  return layered(spec, [W](std::size_t, std::size_t p) {
    std::vector<std::size_t> d;
    if (p > 0) d.push_back(p - 1);
    d.push_back(p);
    if (p + 1 < W) d.push_back(p + 1);
    return d;
  });
}

WorkloadGraph gen_nearest(const WorkloadSpec& spec) {
  const std::size_t W = spec.width, r = spec.radix;
  return layered(spec, [W, r](std::size_t, std::size_t p) {
    std::vector<std::size_t> d;
    const std::size_t lo = p > r ? p - r : 0;
    const std::size_t hi = std::min(W - 1, p + r);
    for (std::size_t q = lo; q <= hi; ++q) d.push_back(q);
    return d;
  });
}

WorkloadGraph gen_fft(const WorkloadSpec& spec) {
  const std::size_t W = spec.width;
  const std::size_t logw = std::max<std::size_t>(1, ceil_log2(W));
  return layered(spec, [W, logw](std::size_t t, std::size_t p) {
    if (t == 0) return std::vector<std::size_t>{p};  // load own input
    const std::size_t stride = std::size_t{1} << ((t - 1) % logw);
    const std::size_t partner = p ^ stride;
    std::vector<std::size_t> d{p};
    if (partner < W) d.push_back(partner);
    std::sort(d.begin(), d.end());
    return d;
  });
}

WorkloadGraph gen_random(const WorkloadSpec& spec) {
  // Seeded Erdos-Renyi layer-to-layer edges, drawn from the generator's own
  // sub-stream in (t, p, q) order; every task keeps at least one incoming
  // edge so the graph stays connected layer to layer.
  auto rng = std::make_shared<Rng>(Rng(spec.seed).substream("random"));
  const std::size_t W = spec.width;
  const double prob = spec.prob;
  return layered(spec, [rng, W, prob](std::size_t, std::size_t) {
    std::vector<std::size_t> d;
    for (std::size_t q = 0; q < W; ++q)
      if (rng->next_double() < prob) d.push_back(q);
    if (d.empty()) d.push_back(rng->next_below(W));
    return d;
  });
}

WorkloadGraph gen_tree(const WorkloadSpec& spec) {
  // Binary reduction: the layer width halves until one point remains (then
  // continues as a chain if depth allows), task (t, p) combining points
  // (2p, 2p+1) of the layer below -- the traffic shape of an allreduce leg.
  check_size(spec, spec.width * spec.depth);
  WorkloadGraph g;
  g.name = spec.to_string();
  const std::size_t side = tile_side(spec.bytes, 8);

  std::vector<std::uint32_t> inputs;
  for (std::size_t p = 0; p < spec.width; ++p)
    inputs.push_back(g.add_tile(side, side));

  std::vector<std::uint32_t> prev;
  std::size_t w = spec.width;
  for (std::size_t t = 0; t < spec.depth; ++t) {
    if (t > 0) w = (w + 1) / 2;
    std::vector<std::uint32_t> cur;
    for (std::size_t p = 0; p < w; ++p) {
      TaskSpec task;
      task.label = "tree";
      task.flops = spec.flops;
      task.min_dim = side;
      task.place_i = p;
      task.place_j = t;
      if (t == 0) {
        task.accesses.push_back({inputs[p], Access::kR});
      } else {
        task.accesses.push_back({prev[2 * p], Access::kR});
        if (2 * p + 1 < prev.size())
          task.accesses.push_back({prev[2 * p + 1], Access::kR});
      }
      const std::uint32_t out = g.add_tile(side, side);
      task.accesses.push_back({out, Access::kW});
      cur.push_back(out);
      g.tasks.push_back(std::move(task));
    }
    prev = std::move(cur);
  }
  g.coherent = prev;
  return g;
}

WorkloadGraph gen_dnn(const WorkloadSpec& spec) {
  // Data-parallel training pipeline (libdnn-style layer graphs): `width`
  // model replicas (shards) run `depth` layers forward and backward; every
  // layer's weight tile is broadcast-read by all shards (the traffic the
  // optimistic D2D heuristic deduplicates), and the per-shard weight
  // gradients are combined by a binary reduction tree before the weight
  // update (the cross-GPU traffic topology-aware sourcing routes over
  // NVLink).  Per-layer costs are jittered from the "dnn" sub-stream to
  // model heterogeneous layers.
  const std::size_t W = spec.width, L = spec.depth;
  check_size(spec, 3 * W * L + W + L);
  WorkloadGraph g;
  g.name = spec.to_string();
  const std::size_t side = tile_side(spec.bytes, 8);
  Rng rng = Rng(spec.seed).substream("dnn");
  std::vector<double> layer_cost(L);
  for (std::size_t l = 0; l < L; ++l)
    layer_cost[l] = spec.flops * rng.uniform(0.75, 1.25);
  const double red_flops =
      static_cast<double>(side) * static_cast<double>(side);

  // act[l][p]: activations entering layer l (act[0] = external inputs).
  std::vector<std::vector<std::uint32_t>> act(L + 1);
  for (std::size_t p = 0; p < W; ++p)
    act[0].push_back(g.add_tile(side, side));
  std::vector<std::uint32_t> weight(L);
  for (std::size_t l = 0; l < L; ++l)
    weight[l] = g.add_tile(side, side);

  auto task = [&](const char* label, double flops, std::size_t pi,
                  std::size_t pj, std::vector<TaskAccessSpec> acc) {
    TaskSpec t;
    t.label = label;
    t.flops = flops;
    t.min_dim = side;
    t.place_i = pi;
    t.place_j = pj;
    t.accesses = std::move(acc);
    g.tasks.push_back(std::move(t));
  };

  // Forward pass.
  for (std::size_t l = 0; l < L; ++l)
    for (std::size_t p = 0; p < W; ++p) {
      const std::uint32_t out = g.add_tile(side, side);
      act[l + 1].push_back(out);
      task("fwd", layer_cost[l], p, l,
           {{act[l][p], Access::kR},
            {weight[l], Access::kR},
            {out, Access::kW}});
    }

  // Loss gradient per shard.
  std::vector<std::vector<std::uint32_t>> grad(L + 1);
  grad[L].resize(W);
  for (std::size_t p = 0; p < W; ++p) {
    grad[L][p] = g.add_tile(side, side);
    task("loss", spec.flops, p, L,
         {{act[L][p], Access::kR}, {grad[L][p], Access::kW}});
  }

  // Backward pass: each step produces the input gradient and a per-shard
  // weight-gradient partial.
  std::vector<std::vector<std::uint32_t>> wgrad(L);
  for (std::size_t li = L; li-- > 0;) {
    grad[li].resize(W);
    wgrad[li].resize(W);
    for (std::size_t p = 0; p < W; ++p) {
      grad[li][p] = g.add_tile(side, side);
      wgrad[li][p] = g.add_tile(side, side);
      task("bwd", layer_cost[li], p, li,
           {{grad[li + 1][p], Access::kR},
            {act[li][p], Access::kR},
            {weight[li], Access::kR},
            {grad[li][p], Access::kW},
            {wgrad[li][p], Access::kW}});
    }
  }

  // Weight-gradient reduction tree + weight update, per layer.
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t h = 1; h < W; h *= 2)
      for (std::size_t a = 0; a + h < W; a += 2 * h)
        task("wred", red_flops, a, l,
             {{wgrad[l][a + h], Access::kR}, {wgrad[l][a], Access::kRW}});
    task("wupd", red_flops, 0, l,
         {{wgrad[l][0], Access::kR}, {weight[l], Access::kRW}});
  }

  // Trained weights come home (exercises lazy coherency + D2H).
  g.coherent = weight;
  return g;
}

}  // namespace

WorkloadGraph composition_graph(std::size_t n, std::size_t ts) {
  // The Fig. 8 graph: B := A^-1 B (TRSM, Left/Lower/NoTrans/NonUnit,
  // alpha=1) then C := B D + C (GEMM, NoTrans/NoTrans, alpha=beta=1), as
  // one composed task stream.  Tile-creation order and task fields mirror
  // blas::tiled_trsm / blas::tiled_gemm line by line -- test_workload.cpp
  // asserts the bridged replay is bit-identical to the baselines
  // composition plan (run_composition), so a drift here is a test failure,
  // not a silent skew.
  if (n == 0 || ts == 0 || ts > n)
    throw std::invalid_argument(
        "composition workload: need 0 < tile <= n");
  WorkloadGraph g;
  WorkloadSpec spec;
  spec.kind = Generator::kComposition;
  spec.n = n;
  spec.tile = ts;
  g.name = spec.to_string();
  g.grid_placement = true;

  enum Mat : int { A, B, C, D };
  std::map<std::tuple<int, std::size_t, std::size_t>, std::uint32_t> ids;
  auto tile = [&](Mat mt, std::size_t i, std::size_t j) {
    const auto key = std::make_tuple(static_cast<int>(mt), i, j);
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    const std::uint32_t id = g.add_tile(std::min(ts, n - i * ts),
                                        std::min(ts, n - j * ts));
    ids.emplace(key, id);
    return id;
  };
  const std::size_t Nt = (n + ts - 1) / ts;
  auto bdim = [&](std::size_t k) { return std::min(ts, n - k * ts); };

  // TRSM: forward substitution over row blocks of B.
  for (std::size_t k = 0; k < Nt; ++k) {
    const std::size_t bk = bdim(k);
    const std::uint32_t hAkk = tile(A, k, k);
    for (std::size_t j = 0; j < Nt; ++j) {
      const std::size_t bj = bdim(j);
      const std::uint32_t hBk = tile(B, k, j);
      TaskSpec t;
      t.label = "trsm";
      t.accesses = {{hAkk, Access::kR}, {hBk, Access::kRW}};
      t.flops = static_cast<double>(bk) * bj * bk;
      t.min_dim = std::min(bk, bj);
      t.eff_factor = 0.5;  // triangular solves run well below GEMM speed
      t.place_i = k;
      t.place_j = j;
      g.tasks.push_back(std::move(t));

      for (std::size_t m = k + 1; m < Nt; ++m) {
        const std::size_t bm = bdim(m);
        const std::uint32_t hAmk = tile(A, m, k);
        const std::uint32_t hBm = tile(B, m, j);
        TaskSpec u;
        u.label = "trsm";
        u.accesses = {
            {hAmk, Access::kR}, {hBk, Access::kR}, {hBm, Access::kRW}};
        u.flops = 2.0 * static_cast<double>(bm) * bj * bk;
        u.min_dim = std::min({bm, bj, bk});
        u.place_i = m;
        u.place_j = j;
        g.tasks.push_back(std::move(u));
      }
    }
  }

  // GEMM: C += B D over the freshly solved B.
  for (std::size_t i = 0; i < Nt; ++i)
    for (std::size_t j = 0; j < Nt; ++j) {
      const std::size_t bm = bdim(i), bn = bdim(j);
      const std::uint32_t hC = tile(C, i, j);
      for (std::size_t l = 0; l < Nt; ++l) {
        const std::size_t bk = bdim(l);
        const std::uint32_t hB = tile(B, i, l);
        const std::uint32_t hD = tile(D, l, j);
        TaskSpec t;
        t.label = "gemm";
        t.accesses = {{hB, Access::kR}, {hD, Access::kR}, {hC, Access::kRW}};
        t.flops = 2.0 * static_cast<double>(bm) * bn * bk;
        t.min_dim = std::min({bm, bn, bk});
        t.place_i = i;
        t.place_j = j;
        g.tasks.push_back(std::move(t));
      }
    }

  // Lazy coherency on the two results, in the composition plan's order.
  for (std::size_t i = 0; i < Nt; ++i)
    for (std::size_t j = 0; j < Nt; ++j) g.coherent.push_back(tile(B, i, j));
  for (std::size_t i = 0; i < Nt; ++i)
    for (std::size_t j = 0; j < Nt; ++j) g.coherent.push_back(tile(C, i, j));
  return g;
}

WorkloadGraph build(const WorkloadSpec& spec) {
  WorkloadGraph g;
  switch (spec.kind) {
    case Generator::kTrivial: g = gen_trivial(spec); break;
    case Generator::kStencil1d: g = gen_stencil(spec); break;
    case Generator::kNearest: g = gen_nearest(spec); break;
    case Generator::kFft: g = gen_fft(spec); break;
    case Generator::kTree: g = gen_tree(spec); break;
    case Generator::kRandom: g = gen_random(spec); break;
    case Generator::kDnn: g = gen_dnn(spec); break;
    case Generator::kComposition:
      g = composition_graph(spec.n, spec.tile);
      break;
  }
  g.validate();
  return g;
}

}  // namespace xkb::wl
