// xkb_perfbench -- the end-to-end benchmark behind BENCHMARK.json.
//
//   xkb_perfbench --workload W --seed S --seconds T [--trace]
//                 [--arrival-seed A] [--mix-seed M] [--expect FILE] [--pin]
//   xkb_perfbench --probe-rss checked|unchecked
//
// Workloads (BENCHMARK.json says why each was chosen):
//   paper_dgx1        Fig. 3 ablation + Fig. 4 data-on-device sweep on the
//                     DGX-1 preset: one LibraryModel::run per row.
//   scaleout_checked  stencil_1d on a 512-device fat tree under xkb::check.
//   service_soak      open-loop Poisson soak of xkb::svc on dgx1: 3 tenants,
//                     fair share, check + obs attached.
//
// Every layer is measured from the outside: the harness times its calls into
// the layers' public functions (spans), reads their public counters, and
// attaches the existing prof::SelfProfiler for the phases inside a run.
// Every simulated output is checked against the fingerprints in --expect.
//
// Without --trace the harness measures for --seconds and reports the
// end-to-end metrics; with --trace it runs the same work untraced and
// traced and reports the per-layer metrics.  The last stdout line is one
// JSON object that perfbench/run.py turns into the benchmark result.
//
// Simulated (virtual) time is reported in sim_s / sim_ms units, host time
// in s: the two never mix in one number.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/library_model.hpp"
#include "obs/ledger.hpp"
#include "obs/obs.hpp"
#include "runtime/runtime.hpp"
#include "svc/arrivals.hpp"
#include "svc/svc.hpp"
#include "tdl/presets.hpp"
#include "topo/topology.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/selfprof.hpp"
#include "workload/bridge.hpp"
#include "workload/workload.hpp"

using namespace xkb;

namespace {

// ------------------------------------------------------------ utilities --

/// Host time of this (single-threaded) process: CPU seconds, so that time
/// the host lends to other tenants while the process waits to run is not
/// charged to the simulator.
double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall clock: only bounds how long a run measures.
double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process in MB (VmHWM).  Process-wide and
/// monotonic, which is why every measurement runs in a fresh process.
double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line))
    if (line.compare(0, 6, "VmHWM:") == 0)
      return static_cast<double>(std::stoul(line.substr(6))) / 1024.0;
  return 0.0;
}

/// Linear-interpolated percentile (the rule tools/service_bench uses).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Throughput of a run from its repeats: the fastest decile.  Other tenants
/// of a shared host only ever slow a repeat down, so the fast end of the
/// distribution is the steadiest estimate of the simulator's own speed.
double fastest(std::vector<double> v) { return percentile(std::move(v), 90); }

void print_samples(const char* what, const std::vector<double>& v) {
  std::printf("%s:", what);
  for (double x : v) std::printf(" %.6g", x);
  std::printf("\n");
}

std::string hex64(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------- spans --

/// In-memory span recorder: name, start, end and parent of every call the
/// harness makes into a layer.  A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, now_s(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    if (id < 0) return;
    Rec& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    open_ = s.parent;
  }

  /// Self time per span name: duration minus the part its children cover.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Rec& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return out;
  }
  /// Host time covered by top-level spans.
  double covered() const {
    double c = 0.0;
    for (const Rec& s : spans_)
      if (s.parent < 0) c += s.end - s.start;
    return c;
  }

 private:
  struct Rec {
    std::string name;
    double start, end;
    int parent;
  };
  bool on_;
  std::vector<Rec> spans_;
  int open_ = -1;
};

class Span {
 public:
  Span(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

Tracer g_untraced(false);

/// Seconds a SelfProfiler phase spent; sampled phases are scaled by
/// calls / timed_calls.
double phase_s(const prof::SelfProfiler& sp, prof::Phase p) {
  const prof::PhaseStats& st = sp.slot(p);
  if (st.timed_calls == 0) return 0.0;
  return 1e-9 * static_cast<double>(st.total_ns) *
         static_cast<double>(st.calls) / static_cast<double>(st.timed_calls);
}

using Metrics = std::map<std::string, double>;

void report_selfprof(const prof::SelfProfiler& sp, Metrics& m) {
  m["sim.engine_run_s"] = phase_s(sp, prof::Phase::kEngineRun);
  m["sim.queue_adopt_s"] = phase_s(sp, prof::Phase::kQueueAdopt);
  m["sim.queue_rebuild_s"] = phase_s(sp, prof::Phase::kQueueRebuild);
  m["mem.cache_touch_s"] = phase_s(sp, prof::Phase::kCacheTouch);
  m["mem.cache_reserve_s"] = phase_s(sp, prof::Phase::kCacheReserve);
  m["runtime.dm_fetch_s"] = phase_s(sp, prof::Phase::kDmFetch);
}

/// Host-time samples of a workload's set-up.  After three untimed warm-ups
/// (the first set-ups of a process also grow its heap) it takes 21 samples;
/// the run then takes more in small batches between its repeats, so the
/// median sees the same host conditions as the whole run.  When tracing it
/// also keeps each span's self time.
template <class F>
class SetupSampler {
 public:
  SetupSampler(bool trace, F setup) : trace_(trace), setup_(std::move(setup)) {
    for (int k = 0; k < 3; ++k) setup_(g_untraced);
    sample(21);
  }
  void sample(int n) {
    for (int k = 0; k < n; ++k) {
      Tracer tr(trace_);
      const double t0 = now_s();
      setup_(tr);
      host_.push_back(now_s() - t0);
      for (const auto& kv : tr.self_times())
        spans_[kv.first].push_back(kv.second);
    }
  }
  double median_s() const {
    std::printf("set-up: %zu samples, median %.6g s (p10 %.6g, p90 %.6g)\n",
                host_.size(), median(host_), percentile(host_, 10),
                percentile(host_, 90));
    return median(host_);
  }
  /// Median self time of every span the set-up recorded.
  void report(Metrics& m) const {
    for (const auto& kv : spans_) m[kv.first] = median(kv.second);
  }

 private:
  bool trace_;
  F setup_;
  std::vector<double> host_;
  std::map<std::string, std::vector<double>> spans_;
};

// -------------------------------------------------------------- results --

/// What one harness run reports.  Metric units live in BENCHMARK.json;
/// run.py attaches them.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Observed fingerprints (key -> digest), printed for --pin.
  std::map<std::string, std::string> observed;

  void add(const std::string& name, double v) { metrics[name] = v; }
  /// Count one operation; it fails if `ok` is false or its digest differs
  /// from `pin` (unless pinning).
  void account(std::uint64_t ops, bool ok, const std::string& key,
               const std::string& digest, const std::string* pin,
               bool pinning) {
    attempted += ops;
    observed[key] = digest;
    if (ok && (pinning || (pin && *pin == digest))) return;
    failed += ops;
    std::fprintf(stderr, "MISMATCH %s:\n  observed %s\n  pinned   %s\n",
                 key.c_str(), digest.c_str(), pin ? pin->c_str() : "(none)");
  }
};

/// The per-layer metrics a workload measured, as a table and into `r`.
/// Layers it does not exercise are left out (run.py reports them as 0).
void emit_layers(Result& r, const Metrics& m) {
  std::printf("\n%-40s %16s\n", "per-layer metric", "value");
  for (const auto& [name, v] : m)
    std::printf("%-40s %16.6g\n", name.c_str(), v);
  r.metrics = m;
}

/// Latency metrics from per-class samples in simulated seconds: the p50
/// of the interactive class and the p95 of each class.
void add_latencies(Result& r, const std::vector<double> (&cls)[3],
                   const char* what) {
  static const char* const kNames[3] = {"interactive", "batch", "bulk"};
  std::printf("latency samples (%s):", what);
  for (int c = 0; c < 3; ++c)
    std::printf(" %s %zu (%zu beyond p95)", kNames[c], cls[c].size(),
                cls[c].size() / 20);
  std::printf("\n");
  r.add("interactive_p50_ms", 1e3 * percentile(cls[0], 50));
  r.add("interactive_p95_ms", 1e3 * percentile(cls[0], 95));
  r.add("batch_p95_ms", 1e3 * percentile(cls[1], 95));
  r.add("bulk_p95_ms", 1e3 * percentile(cls[2], 95));
}

/// Pinned fingerprints of one workload (key -> digest).
class Expect {
 public:
  Expect(const std::string& path, const std::string& workload) {
    if (path.empty()) return;
    doc_ = util::json_parse_file(path);
    wl_ = doc_.find(workload);
  }
  const std::string* get(const std::string& key) const {
    if (!wl_) return nullptr;
    const util::JsonValue* v = wl_->find(key);
    return v && v->is_string() ? &v->as_string() : nullptr;
  }

 private:
  util::JsonValue doc_;
  const util::JsonValue* wl_ = nullptr;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  std::uint64_t arrival_seed = 42;
  std::uint64_t mix_seed = 11;
  double seconds = 10.0;
  bool trace = false;
  std::string expect;
  bool pin = false;
  std::string probe_rss;
};

/// Counters the harness reads from the simulator's public accessors.
struct Counts {
  double events = 0, observable = 0, peak_pending = 0, tasks = 0, steals = 0;
  double h2d = 0, d2d = 0, optimistic = 0, forced = 0, evict_flushes = 0;
  double kernel_s = 0, htod_s = 0, ptop_s = 0;

  void add_transfers(const rt::TransferStats& t) {
    h2d += static_cast<double>(t.h2d);
    d2d += static_cast<double>(t.d2d);
    optimistic += static_cast<double>(t.optimistic_waits);
    forced += static_cast<double>(t.forced_waits);
    evict_flushes += static_cast<double>(t.evict_flushes);
  }
  void add_breakdown(const trace::Breakdown& b) {
    kernel_s += b.kernel;
    htod_s += b.htod;
    ptop_s += b.ptop;
  }
  void add_runtime(rt::Runtime& r, rt::Platform& p) {
    const sim::Engine& e = p.engine();
    events += static_cast<double>(e.events_processed());
    observable += static_cast<double>(e.observable_processed());
    peak_pending =
        std::max(peak_pending, static_cast<double>(e.peak_pending()));
    tasks += static_cast<double>(r.tasks_completed());
    steals += static_cast<double>(r.steals());
    add_transfers(r.data_manager().stats());
    add_breakdown(p.trace().breakdown());
  }
  void report(Metrics& m) const {
    m["sim.events"] = events;
    m["sim.events_observable"] = observable;
    m["sim.peak_pending"] = peak_pending;
    m["runtime.tasks"] = tasks;
    m["runtime.steals"] = steals;
    m["dm.h2d"] = h2d;
    m["dm.d2d"] = d2d;
    m["dm.optimistic_waits"] = optimistic;
    m["dm.forced_waits"] = forced;
    m["dm.evict_flushes"] = evict_flushes;
    m["sim.kernel_busy_s"] = kernel_s;
    m["sim.htod_busy_s"] = htod_s;
    m["sim.ptop_busy_s"] = ptop_s;
  }
};

std::size_t resident_replicas(rt::Platform& p) {
  std::size_t n = 0;
  for (int d = 0; d < p.num_gpus(); ++d) n += p.cache(d).resident_count();
  return n;
}

// ============================================================ paper_dgx1 ==

struct Model {
  const char* key;  ///< baselines.<key>.host_s
  std::unique_ptr<baselines::LibraryModel> lib;
};

struct Row {
  int model;
  Blas3 routine;
  std::size_t n, tile;
  bool dod;
};

struct Sweep {
  std::vector<Model> models;
  std::vector<Row> rows;

  std::string key(const Row& r) const {
    std::ostringstream os;
    os << models[static_cast<std::size_t>(r.model)].lib->name() << "|"
       << blas3_name(r.routine) << "|" << r.n << "|" << r.tile << "|"
       << (r.dod ? "dod" : "doh");
    return os.str();
  }
};

/// The five library models and the row table: the Fig. 3 series (XKBlas,
/// both ablations, cuBLAS-XT; data on host) and the Fig. 4 additions
/// (Chameleon Tile on host, XKBlas data on device), over the paper sizes
/// and every candidate tile bench/bench_common.hpp's best_over_tiles
/// admits.  Rows a model does not support are not rows.  Also builds the
/// DGX-1 topology and one platform + runtime, the set-up every row repeats.
Sweep paper_setup(Tracer& tr) {
  {
    Span s(tr, "tdl.route_s");
    const topo::Topology topo =
        topo::Topology::from_machine(tdl::dgx1_machine());
    Span i(tr, "runtime.init_s");
    rt::Platform plat(topo, rt::PerfModel{}, rt::PlatformOptions{});
    rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>());
  }
  Sweep sw;
  sw.models.push_back(
      {"xkblas", baselines::make_xkblas(rt::HeuristicConfig::xkblas())});
  sw.models.push_back(
      {"xkblas_noheur",
       baselines::make_xkblas(rt::HeuristicConfig::no_heuristic(),
                              ", no heuristic")});
  sw.models.push_back(
      {"xkblas_noheur_notopo",
       baselines::make_xkblas(rt::HeuristicConfig::no_heuristic_no_topo(),
                              ", no heuristic, no topo")});
  sw.models.push_back({"cublasxt", baselines::make_cublasxt()});
  sw.models.push_back({"chameleon_tile", baselines::make_chameleon(true)});

  const std::size_t sizes[] = {4096,  8192,  16384, 24576,
                               32768, 40960, 49152, 57344};
  const std::pair<int, bool> series[] = {{0, false}, {1, false}, {2, false},
                                         {3, false}, {4, false}, {0, true}};
  for (const auto& [model, dod] : series)
    for (Blas3 r : {Blas3::kGemm, Blas3::kSyr2k, Blas3::kTrsm}) {
      if (!sw.models[static_cast<std::size_t>(model)].lib->supports(r))
        continue;
      for (std::size_t n : sizes)
        for (std::size_t ts : {1024, 2048, 4096}) {
          const double nt = static_cast<double>(n) / static_cast<double>(ts);
          if (ts * 2 > n || nt * nt * nt > 40000) continue;
          sw.rows.push_back({model, r, n, ts, dod});
        }
    }
  return sw;
}

std::string row_digest(const baselines::BenchResult& r) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "makespan=%.17g tasks=%zu h2d=%zu d2h=%zu d2d=%zu ow=%zu "
                "fw=%zu",
                r.seconds, r.tasks, r.transfers.h2d, r.transfers.d2h,
                r.transfers.d2d, r.transfers.optimistic_waits,
                r.transfers.forced_waits);
  return buf;
}

/// Size classes of the sweep, reported as interactive / batch / bulk.
int size_class(std::size_t n) { return n <= 8192 ? 0 : n <= 32768 ? 1 : 2; }

Result run_paper(const Args& a) {
  Result out;
  const Expect expect(a.expect, "paper_dgx1");
  SetupSampler setup(a.trace, [](Tracer& tr) { paper_setup(tr); });
  Metrics m;
  setup.report(m);
  const Sweep sw = paper_setup(g_untraced);
  const std::vector<Row>& rows = sw.rows;

  // The seed fixes the order the rows run in.  Each row is an independent
  // simulation, so only host-side state (allocator, caches) sees it.
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(a.seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  std::vector<baselines::BenchResult> res(rows.size());
  auto run_row = [&](std::size_t i) {
    const Row& row = rows[i];
    baselines::BenchConfig cfg;
    cfg.routine = row.routine;
    cfg.n = row.n;
    cfg.tile = row.tile;
    cfg.data_on_device = row.dod;
    const double t0 = now_s();
    res[i] = sw.models[static_cast<std::size_t>(row.model)].lib->run(cfg);
    const double dt = now_s() - t0;
    const std::string key = sw.key(row);
    out.account(1, !res[i].failed, key, row_digest(res[i]), expect.get(key),
                a.pin);
    return dt;
  };

  if (!a.trace) {
    // Rows run round-robin in the seeded order until the run length is
    // used up, after at least one full pass; a row's host time is its
    // fastest sample (see fastest()).
    std::vector<std::vector<double>> host(rows.size());
    const double t_end = wall_s() + a.seconds;
    std::size_t runs = 0;
    while (runs < rows.size() || wall_s() < t_end) {
      const std::size_t i = order[runs % rows.size()];
      host[i].push_back(run_row(i));
      setup.sample(1);
      ++runs;
    }
    std::printf("paper_dgx1: %zu rows, %zu row runs (%.2f passes)\n",
                rows.size(), runs,
                static_cast<double>(runs) / static_cast<double>(rows.size()));

    double tasks = 0, host_sum = 0, makespan_sum = 0, busy = 0, capacity = 0;
    std::vector<double> lat[3];
    std::map<std::string, double> best;  // XKBlas, best over tiles
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const baselines::BenchResult& r = res[i];
      tasks += static_cast<double>(r.tasks);
      host_sum += *std::min_element(host[i].begin(), host[i].end());
      makespan_sum += r.seconds;
      for (const trace::Breakdown& b : r.per_gpu) busy += b.kernel;
      capacity += r.seconds * static_cast<double>(r.per_gpu.size());
      lat[size_class(rows[i].n)].push_back(r.seconds);
      if (rows[i].model == 0) {
        const std::string point = std::string(blas3_name(rows[i].routine)) +
                                  std::to_string(rows[i].n) +
                                  (rows[i].dod ? "dod" : "doh");
        best[point] = std::max(best[point], r.tflops);
      }
    }
    double log_sum = 0;
    for (const auto& kv : best) log_sum += std::log(kv.second);
    out.add("setup_s", setup.median_s());
    out.add("tasks_per_s", tasks / host_sum);
    out.add("xkblas_tflops",
            std::exp(log_sum / static_cast<double>(best.size())));
    out.add("goodput_jobs_per_s",
            static_cast<double>(rows.size()) / makespan_sum);
    out.add("gpu_util", busy / capacity);
    add_latencies(out, lat, "simulated makespan per row, by size class");
    return out;
  }

  // --trace: one untraced pass, then one traced pass with a span around
  // every LibraryModel::run and the self-profiler attached.
  double t0 = now_s();
  for (std::size_t i : order) run_row(i);
  const double untraced = now_s() - t0;

  Tracer tr(true);
  prof::SelfProfiler sp;
  prof::SelfProfiler::activate(&sp);
  t0 = now_s();
  for (std::size_t i : order) {
    Span s(tr, std::string("baselines.") +
                   sw.models[static_cast<std::size_t>(rows[i].model)].key +
                   ".host_s");
    run_row(i);
  }
  const double traced = now_s() - t0;
  prof::SelfProfiler::activate(nullptr);

  for (const auto& kv : tr.self_times()) m[kv.first] = kv.second;
  report_selfprof(sp, m);
  Counts c;
  for (const baselines::BenchResult& r : res) {
    c.events += static_cast<double>(r.events_processed);
    c.observable += static_cast<double>(r.events_observable);
    c.peak_pending =
        std::max(c.peak_pending, static_cast<double>(r.events_peak_pending));
    c.tasks += static_cast<double>(r.tasks);
    c.steals += static_cast<double>(r.steals);
    c.add_transfers(r.transfers);
    c.add_breakdown(r.breakdown);
  }
  c.report(m);
  m["topo.sparse_bytes"] = static_cast<double>(
      topo::Topology::from_machine(tdl::dgx1_machine()).sparse_bytes());
  m["trace.span_coverage"] = tr.covered() / traced;
  m["trace.overhead"] = traced / untraced;
  std::printf("paper_dgx1: traced pass %.3f s, untraced %.3f s\n", traced,
              untraced);
  emit_layers(out, m);
  return out;
}

// ===================================================== scaleout_checked ==

/// 32 leaves x 16 GPUs.  The 1024-device tree is the largest size the
/// ROADMAP claims, but checked it peaks near 2.5 GB per process; 512
/// devices keeps the checker's dense-state growth visible (~650 MB checked
/// against ~22 MB unchecked) at a footprint a shared host can afford on
/// every run.
constexpr int kScaleNodes = 32;
constexpr int kScaleGpusPerNode = 16;

struct ScaleRun {
  std::unique_ptr<wl::WorkloadGraph> graph;
  std::unique_ptr<rt::Platform> plat;
  std::unique_ptr<rt::Runtime> runtime;
};

ScaleRun scale_setup(bool checked, Tracer& tr) {
  ScaleRun s;
  std::unique_ptr<topo::Topology> topo;
  {
    Span sp(tr, "tdl.route_s");
    tdl::FatTreeSpec spec;
    spec.nodes = kScaleNodes;
    spec.gpus_per_node = kScaleGpusPerNode;
    topo = std::make_unique<topo::Topology>(
        topo::Topology::from_machine(tdl::fat_tree_machine(spec)));
  }
  {
    Span sp(tr, "workload.build_s");
    // topo_bench's shape: two tiles per device, eight layers deep.
    s.graph = std::make_unique<wl::WorkloadGraph>(wl::build(
        wl::WorkloadSpec::parse("stencil_1d:width=" +
                                std::to_string(2 * topo->num_gpus()) +
                                ",depth=8")));
  }
  Span sp(tr, "runtime.init_s");
  rt::PlatformOptions popt;
  popt.functional = false;
  s.plat = std::make_unique<rt::Platform>(std::move(*topo), rt::PerfModel{},
                                          popt);
  rt::RuntimeOptions ropt;
  ropt.check.enabled = checked;
  s.runtime = std::make_unique<rt::Runtime>(
      *s.plat, std::make_unique<rt::OwnerComputesScheduler>(), ropt);
  return s;
}

struct ScaleRep {
  double sim_host_s = 0, drain_s = 0;  ///< emit + drain + audit; drain alone
  double makespan = 0, flops = 0;
  int gpus = 0;
  bool ok = false;
  std::string digest;
  std::size_t resident = 0, sparse_bytes = 0;
  Counts counts;
};

ScaleRep scale_rep(bool checked, Tracer& tr) {
  ScaleRun s = scale_setup(checked, tr);
  rt::Runtime& runtime = *s.runtime;
  ScaleRep rep;
  const double t0 = now_s();
  std::unique_ptr<wl::Bridge> bridge;
  {
    Span sp(tr, "workload.emit_s");
    wl::BridgeOptions bopt;
    bopt.home = [n = s.plat->num_gpus()](std::size_t i, std::size_t) {
      return static_cast<int>(i % static_cast<std::size_t>(n));
    };
    bridge = std::make_unique<wl::Bridge>(runtime, *s.graph, std::move(bopt));
    bridge->emit();
    bridge->coherent();
  }
  const double t1 = now_s();
  {
    Span sp(tr, "runtime.drain_s");
    rep.makespan = runtime.drain();
  }
  rep.drain_s = now_s() - t1;
  {
    Span sp(tr, "check.audit_s");
    runtime.finalize_checks();
  }
  rep.sim_host_s = now_s() - t0;

  rep.counts.add_runtime(runtime, *s.plat);
  rep.gpus = s.plat->num_gpus();
  rep.flops = s.graph->total_flops();
  rep.resident = resident_replicas(*s.plat);
  rep.sparse_bytes = s.plat->topology().sparse_bytes();

  const check::Checker* chk = runtime.checker();
  rep.ok = runtime.tasks_completed() == runtime.tasks_submitted() &&
           (!chk || chk->ok());
  const rt::TransferStats& ts = runtime.data_manager().stats();
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "check=%s violations=%zu hash=%s tasks=%zu events=%.0f "
                "makespan=%.17g h2d=%zu d2h=%zu d2d=%zu ow=%zu fw=%zu "
                "steals=%zu",
                chk ? (chk->ok() ? "ok" : "FAIL") : "off",
                chk ? chk->total_violations() : std::size_t{0},
                hex64(chk ? chk->event_hash() : 0).c_str(),
                runtime.tasks_completed(), rep.counts.events, rep.makespan,
                ts.h2d, ts.d2h, ts.d2d, ts.optimistic_waits, ts.forced_waits,
                runtime.steals());
  rep.digest = buf;

  Span sp(tr, "runtime.teardown_s");
  bridge.reset();
  s.runtime.reset();
  s.plat.reset();
  return rep;
}

Result run_scaleout(const Args& a) {
  // The stencil has no random parameter: every seed runs the same input.
  Result out;
  const Expect expect(a.expect, "scaleout_checked");
  auto account = [&](const ScaleRep& r) {
    out.account(1, r.ok, "checked", r.digest, expect.get("checked"), a.pin);
  };
  SetupSampler setup(a.trace, [](Tracer& tr) { scale_setup(true, tr); });
  Metrics m;
  setup.report(m);

  if (!a.trace) {
    std::vector<double> tps;
    ScaleRep last;
    const double t_end = wall_s() + a.seconds;
    do {
      last = scale_rep(true, g_untraced);
      account(last);
      setup.sample(3);
      tps.push_back(last.counts.tasks / last.sim_host_s);
    } while (wall_s() < t_end);
    std::printf("scaleout_checked: %d devices, %zu checked runs of %.0f "
                "tasks\n",
                last.gpus, tps.size(), last.counts.tasks);
    print_samples("tasks/s per checked run", tps);
    out.add("setup_s", setup.median_s());
    out.add("tasks_per_s", fastest(tps));
    out.add("xkblas_tflops", last.flops / last.makespan / 1e12);
    out.add("goodput_jobs_per_s", 1.0 / last.makespan);
    out.add("gpu_util", last.counts.kernel_s /
                            (last.makespan * static_cast<double>(last.gpus)));
    // One job class: every tier reports the simulated makespan.
    const std::vector<double> cls[3] = {
        {last.makespan}, {last.makespan}, {last.makespan}};
    add_latencies(out, cls, "simulated makespan of the checked run");
    return out;
  }

  // --trace: three rounds of an untraced checked run, a traced checked run
  // and an unchecked run (the checker's share of drain time); medians.
  std::vector<double> untraced, traced, drain_checked, drain_unchecked, cov;
  std::map<std::string, std::vector<double>> spans;
  prof::SelfProfiler sp;
  // The first checked run of a process also grows the heap; warm up first.
  ScaleRep last = scale_rep(true, g_untraced);
  account(last);
  for (int k = 0; k < 3; ++k) {
    double t0 = now_s();
    const ScaleRep u = scale_rep(true, g_untraced);
    untraced.push_back(now_s() - t0);
    drain_checked.push_back(u.drain_s);
    account(u);

    Tracer tr(true);
    sp.clear();
    prof::SelfProfiler::activate(&sp);
    t0 = now_s();
    last = scale_rep(true, tr);
    const double host = now_s() - t0;
    prof::SelfProfiler::activate(nullptr);
    traced.push_back(host);
    cov.push_back(tr.covered() / host);
    for (const auto& kv : tr.self_times()) spans[kv.first].push_back(kv.second);
    account(last);

    drain_unchecked.push_back(scale_rep(false, g_untraced).drain_s);
  }
  for (const char* run : {"workload.emit_s", "runtime.drain_s",
                          "check.audit_s", "runtime.teardown_s"})
    m[run] = median(spans[run]);
  report_selfprof(sp, m);
  last.counts.report(m);
  m["mem.resident_replicas"] = static_cast<double>(last.resident);
  m["topo.sparse_bytes"] = static_cast<double>(last.sparse_bytes);
  m["check.share"] = 1.0 - median(drain_unchecked) / median(drain_checked);
  m["trace.span_coverage"] = median(cov);
  m["trace.overhead"] = median(traced) / median(untraced);
  std::printf("scaleout_checked: %d devices; drain checked %.3f s, "
              "unchecked %.3f s\n",
              last.gpus, median(drain_checked), median(drain_unchecked));
  emit_layers(out, m);
  return out;
}

/// One scale-out run in a fresh process: its peak RSS, for check.rss_mb.
int probe_rss(const std::string& mode) {
  if (mode != "checked" && mode != "unchecked")
    throw std::invalid_argument("--probe-rss takes checked|unchecked");
  const ScaleRep r = scale_rep(mode == "checked", g_untraced);
  std::printf("{\"peak_rss_mb\": %.17g}\n", peak_rss_mb());
  return r.ok ? 0 : 1;
}

// ========================================================= service_soak ==

/// tools/service_bench's tenant table: an interactive tier with a 10 ms
/// deadline, a batch tier and best-effort bulk traffic.
std::vector<svc::TenantSpec> soak_tenants() {
  struct Tier {
    const char* name;
    int priority;
    double share, deadline;
  };
  static const Tier tiers[] = {{"interactive", 2, 3.0, 10e-3},
                               {"batch", 1, 2.0, 0.0},
                               {"bulk", 0, 1.0, 0.0}};
  std::vector<svc::TenantSpec> ts;
  for (const Tier& t : tiers) {
    svc::TenantSpec s;
    s.name = t.name;
    s.priority = t.priority;
    s.share = t.share;
    s.deadline = t.deadline;
    s.queue_cap = 64;
    s.max_in_system = 96;
    ts.push_back(std::move(s));
  }
  return ts;
}

constexpr double kSoakRateHz = 250.0;  ///< per tenant
constexpr std::size_t kSoakJobs = 2000;

/// One soak, set up and ready to drain.  Arrival callbacks point into it,
/// so it lives behind a unique_ptr.
struct Soak {
  std::unique_ptr<rt::Platform> plat;
  std::shared_ptr<obs::Observability> obs;
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<svc::Service> service;
  obs::LedgerMeta meta;
  std::map<std::uint64_t, double> job_flops;  ///< job id -> graph flops
};

/// svc::TrafficMix::mixed() with its random-DAG generator seeded by `seed`
/// (the catalogue's own seed is 11).
svc::TrafficMix soak_mix(std::uint64_t seed) {
  svc::TrafficMix mix = svc::TrafficMix::mixed();
  for (svc::TrafficMix::Entry& e : mix.entries) {
    wl::WorkloadSpec spec = wl::WorkloadSpec::parse(e.spec);
    if (spec.kind != wl::Generator::kRandom) continue;
    spec.seed = seed;
    e.spec = spec.to_string();
  }
  return mix;
}

std::unique_ptr<Soak> soak_setup(const Args& a, std::size_t jobs,
                                 bool with_obs, Tracer& tr) {
  auto s = std::make_unique<Soak>();
  std::unique_ptr<topo::Topology> topo;
  {
    Span sp(tr, "tdl.route_s");
    topo = std::make_unique<topo::Topology>(
        topo::Topology::from_machine(tdl::dgx1_machine()));
  }
  svc::ArrivalTrace trace;
  std::map<std::string, std::shared_ptr<const wl::WorkloadGraph>> graphs;
  {
    Span sp(tr, "workload.build_s");
    trace = svc::poisson_trace(a.arrival_seed, soak_tenants(), kSoakRateHz,
                               jobs, soak_mix(a.mix_seed));
    for (const svc::Arrival& arr : trace.arrivals) {
      auto& g = graphs[arr.spec];
      if (!g)
        g = std::make_shared<const wl::WorkloadGraph>(
            wl::build(wl::WorkloadSpec::parse(arr.spec)));
    }
  }
  {
    Span sp(tr, "runtime.init_s");
    rt::PlatformOptions popt;
    popt.functional = false;
    popt.kernel_streams = 2;
    popt.device_capacity = 32ull << 30;
    s->plat = std::make_unique<rt::Platform>(std::move(*topo),
                                             rt::PerfModel{}, popt);
    if (with_obs) {
      s->obs = std::make_shared<obs::Observability>(s->plat->num_gpus());
      s->plat->set_obs(s->obs.get());  // before the Runtime
    }
    rt::RuntimeOptions ropt;
    ropt.check.enabled = true;
    s->runtime = std::make_unique<rt::Runtime>(
        *s->plat, std::make_unique<rt::OwnerComputesScheduler>(), ropt);
    s->meta.lib = "service";
    s->meta.routine = trace.name;
    s->meta.scenario = svc::to_string(svc::Arbitration::kFairShare);
    s->meta.seed = trace.seed;
    if (s->obs) s->obs->set_ledger_meta(s->meta);
    s->service =
        std::make_unique<svc::Service>(*s->runtime, svc::ServiceOptions{});
    for (const svc::TenantSpec& t : trace.tenants) s->service->add_tenant(t);
  }
  // Arrivals are observable engine events at their scheduled instants, as
  // in tools/service_bench; every submit is a span.
  Span sp(tr, "workload.build_s");
  for (const svc::Arrival& arr : trace.arrivals) {
    svc::JobSpec js;
    js.name = arr.job;
    js.graph = graphs.at(arr.spec);
    js.deadline = arr.deadline;
    s->plat->engine().schedule_at(
        arr.t, [soak = s.get(), &tr, t = arr.tenant, js = std::move(js)] {
          svc::SubmitResult r;
          {
            Span sub(tr, "svc.submit_s");
            r = soak->service->submit(t, js);
          }
          if (r.admitted || r.dead_letter)
            soak->job_flops[r.job] = js.graph->total_flops();
        });
  }
  return s;
}

struct SoakRep {
  double drain_s = 0, span = 0;
  bool ok = false;
  std::string digest;
  svc::ServiceStats stats;
  std::size_t peak_queued = 0, resident = 0, sparse_bytes = 0;
  std::vector<double> lat[3];  ///< completed jobs, sim s from arrival
  std::vector<double> waits, service, util;
  double on_time = 0, flops_done = 0;
  Counts counts;
};

SoakRep soak_rep(const Args& a, std::size_t jobs, bool with_obs, Tracer& tr) {
  std::unique_ptr<Soak> s = soak_setup(a, jobs, with_obs, tr);
  svc::Service& service = *s->service;
  rt::Platform& plat = *s->plat;
  SoakRep rep;
  const double t0 = now_s();
  {
    Span sp(tr, "svc.drain_s");
    rep.span = service.drain();
  }
  rep.drain_s = now_s() - t0;
  const check::Checker* chk = s->runtime->checker();
  bool ledger_ok = true;
  if (s->obs) {
    Span sp(tr, "obs.ledger_s");
    s->obs->finalize_registry();
    ledger_ok = !obs::ledger_json(obs::build_ledger(
                         plat.trace(), plat.topology(), s->obs.get(),
                         chk ? chk->event_hash() : 0, s->meta))
                     .empty();
  }

  rep.stats = service.stats();
  rep.peak_queued = service.peak_queued();
  for (const svc::JobRecord& r : service.records()) {
    if (r.started >= 0.0) rep.waits.push_back(r.started - r.arrival);
    if (r.state != svc::JobState::kCompleted) continue;
    rep.lat[std::min(r.tenant, 2)].push_back(r.finished - r.arrival);
    rep.service.push_back(r.finished - r.started);
    rep.flops_done += s->job_flops[r.id];
    if (!r.deadline_missed) rep.on_time += 1.0;
  }
  for (int g = 0; g < plat.num_gpus(); ++g)
    rep.util.push_back(plat.trace().breakdown(g).kernel / rep.span);
  rep.resident = resident_replicas(plat);
  rep.sparse_bytes = plat.topology().sparse_bytes();
  rep.counts.add_runtime(*s->runtime, plat);

  // Every submitted job was either shed with a typed rejection or reached
  // a terminal record, nothing is left in the system, and the checker is
  // clean.
  const svc::ServiceStats& st = rep.stats;
  const std::uint64_t rejected =
      st.rejected_queue_full + st.rejected_quota + st.rejected_brownout;
  rep.ok = ledger_ok && chk && chk->ok() &&
           service.in_system() == 0 &&
           st.submitted == rejected + service.records().size() &&
           service.records().size() == st.completed + st.dead_letters;

  std::ostringstream d;
  d.precision(17);
  d << rep.span << "|" << st.submitted << "," << st.admitted << ","
    << st.completed << "," << st.rejected_queue_full << ","
    << st.rejected_quota << "," << st.rejected_brownout << "," << st.expired
    << "," << st.retries << "," << st.dead_letters << "," << st.deadline_miss
    << "|" << rep.peak_queued << "," << rep.counts.tasks << ","
    << rep.counts.events;
  for (const auto& v : rep.lat)
    for (double l : v) d << ";" << l;
  rep.digest = std::string("check=") +
               (chk ? (chk->ok() ? "ok" : "FAIL") : "off") +
               " hash=" + hex64(chk ? chk->event_hash() : 0) +
               " stats=" + hex64(Rng::key(d.str()));

  Span sp(tr, "runtime.teardown_s");
  s.reset();
  return rep;
}

Result run_service(const Args& a) {
  Result out;
  const Expect expect(a.expect, "service_soak");
  const std::string key = "arrival=" + std::to_string(a.arrival_seed) +
                          " mix=" + std::to_string(a.mix_seed);
  auto account = [&](const SoakRep& r) {
    out.account(r.stats.submitted, r.ok, key, r.digest, expect.get(key),
                a.pin);
  };
  SetupSampler setup(a.trace, [&](Tracer& tr) {
    soak_setup(a, kSoakJobs, true, tr);
  });
  Metrics m;
  setup.report(m);

  if (!a.trace) {
    std::vector<double> tps;
    SoakRep last;
    const double t_end = wall_s() + a.seconds;
    do {
      last = soak_rep(a, kSoakJobs, true, g_untraced);
      account(last);
      setup.sample(10);
      tps.push_back(last.counts.tasks / last.drain_s);
    } while (wall_s() < t_end);
    const svc::ServiceStats& s = last.stats;
    std::printf("service_soak: arrival seed %llu, %zu soaks of %llu jobs; "
                "completed %llu, dead-lettered %llu, rejected %llu\n",
                static_cast<unsigned long long>(a.arrival_seed), tps.size(),
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.dead_letters),
                static_cast<unsigned long long>(
                    s.rejected_queue_full + s.rejected_quota +
                    s.rejected_brownout));
    print_samples("tasks/s per soak", tps);
    out.add("setup_s", setup.median_s());
    out.add("tasks_per_s", fastest(tps));
    out.add("xkblas_tflops", last.flops_done / last.span / 1e12);
    out.add("goodput_jobs_per_s", last.on_time / last.span);
    out.add("gpu_util",
            std::accumulate(last.util.begin(), last.util.end(), 0.0) /
                static_cast<double>(last.util.size()));
    add_latencies(out, last.lat, "completed jobs, simulated ms from arrival");
    return out;
  }

  // --trace: a warm-up soak (the first soak of a process also grows the
  // heap), an untraced soak, the traced soak, a traced soak of half the
  // length (how the cache layer scales with soak length), and an untraced
  // soak without obs (obs.share).
  account(soak_rep(a, kSoakJobs, true, g_untraced));
  double t0 = now_s();
  const SoakRep u = soak_rep(a, kSoakJobs, true, g_untraced);
  const double untraced = now_s() - t0;
  account(u);

  // A traced soak of `jobs` jobs: its phases, span self times and span
  // coverage go into `lm`, its host time into `host`.
  auto traced_rep = [&](std::size_t jobs, Metrics& lm, double& host) {
    Tracer tr(true);
    prof::SelfProfiler sp;
    prof::SelfProfiler::activate(&sp);
    const double h0 = now_s();
    SoakRep r = soak_rep(a, jobs, true, tr);
    host = now_s() - h0;
    prof::SelfProfiler::activate(nullptr);
    report_selfprof(sp, lm);
    lm["trace.span_coverage"] = tr.covered() / host;
    Metrics self = tr.self_times();
    for (const char* name : {"svc.submit_s", "svc.drain_s", "obs.ledger_s",
                             "runtime.teardown_s"})
      lm[name] = self[name];
    return r;
  };
  double traced = 0, half_host = 0;
  const SoakRep r = traced_rep(kSoakJobs, m, traced);
  account(r);
  Metrics hm;
  const SoakRep half = traced_rep(kSoakJobs / 2, hm, half_host);
  const SoakRep no_obs = soak_rep(a, kSoakJobs, false, g_untraced);

  r.counts.report(m);
  const svc::ServiceStats& s = r.stats;
  m["mem.resident_replicas"] = static_cast<double>(r.resident);
  m["topo.sparse_bytes"] = static_cast<double>(r.sparse_bytes);
  m["obs.share"] = 1.0 - no_obs.drain_s / u.drain_s;
  m["svc.admitted"] = static_cast<double>(s.admitted);
  m["svc.rejected_queue_full"] = static_cast<double>(s.rejected_queue_full);
  m["svc.rejected_brownout"] = static_cast<double>(s.rejected_brownout);
  m["svc.retries"] = static_cast<double>(s.retries);
  m["svc.expired"] = static_cast<double>(s.expired);
  m["svc.dead_letters"] = static_cast<double>(s.dead_letters);
  m["svc.peak_queued"] = static_cast<double>(r.peak_queued);
  m["svc.queue_wait_p50_ms"] = 1e3 * percentile(r.waits, 50);
  m["svc.queue_wait_p95_ms"] = 1e3 * percentile(r.waits, 95);
  m["svc.service_p50_ms"] = 1e3 * percentile(r.service, 50);
  m["svc.util_min_gpu"] = *std::min_element(r.util.begin(), r.util.end());
  m["trace.overhead"] = traced / untraced;

  std::printf("service_soak: arrival seed %llu; cache layer against soak "
              "length (traced):\n",
              static_cast<unsigned long long>(a.arrival_seed));
  // "unphased" is engine time outside every SelfProfiler phase: host cost
  // the phases do not attribute.
  std::printf("  %6s %8s %9s %10s %14s %16s %10s %18s\n", "jobs", "tasks",
              "drain_s", "us/task", "cache_touch_s", "cache_reserve_s",
              "unphased_s", "resident_replicas");
  const auto line = [](std::size_t jobs, const SoakRep& x, Metrics& l) {
    const double unphased =
        l["sim.engine_run_s"] - l["sim.queue_adopt_s"] -
        l["sim.queue_rebuild_s"] - l["mem.cache_touch_s"] -
        l["mem.cache_reserve_s"] - l["runtime.dm_fetch_s"];
    std::printf("  %6zu %8.0f %9.3f %10.1f %14.4f %16.4f %10.3f %18zu\n",
                jobs, x.counts.tasks, x.drain_s,
                1e6 * x.drain_s / x.counts.tasks, l["mem.cache_touch_s"],
                l["mem.cache_reserve_s"], unphased, x.resident);
  };
  line(kSoakJobs / 2, half, hm);
  line(kSoakJobs, r, m);
  std::printf("  drain with obs %.3f s, without obs %.3f s\n", u.drain_s,
              no_obs.drain_s);
  emit_layers(out, m);
  return out;
}

// ----------------------------------------------------------------- main --

void print_result(const Args& a, const Result& r) {
  std::printf("{\"workload\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
              "\"peak_rss_mb\": %.17g, \"metrics\": {",
              a.workload.c_str(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), peak_rss_mb());
  const char* sep = "";
  for (const auto& [name, v] : r.metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
    sep = ", ";
  }
  std::printf("}, \"observed\": {");
  sep = "";
  for (const auto& [key, digest] : r.observed) {
    std::printf("%s\"%s\": \"%s\"", sep, key.c_str(), digest.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") a.workload = next();
      else if (arg == "--seed") a.seed = std::stoull(next());
      else if (arg == "--arrival-seed") a.arrival_seed = std::stoull(next());
      else if (arg == "--mix-seed") a.mix_seed = std::stoull(next());
      else if (arg == "--seconds") a.seconds = std::stod(next());
      else if (arg == "--trace") a.trace = true;
      else if (arg == "--expect") a.expect = next();
      else if (arg == "--pin") a.pin = true;
      else if (arg == "--probe-rss") a.probe_rss = next();
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (!a.probe_rss.empty()) return probe_rss(a.probe_rss);
    Result r;
    if (a.workload == "paper_dgx1") r = run_paper(a);
    else if (a.workload == "scaleout_checked") r = run_scaleout(a);
    else if (a.workload == "service_soak") r = run_service(a);
    else throw std::invalid_argument("unknown workload '" + a.workload + "'");
    print_result(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "xkb_perfbench: %s\nusage: xkb_perfbench --workload "
                 "paper_dgx1|scaleout_checked|service_soak --seed N "
                 "--seconds T [--trace] [--arrival-seed A] [--mix-seed M] "
                 "[--expect FILE] "
                 "[--pin] | --probe-rss checked|unchecked\n",
                 e.what());
    return 2;
  }
  return 0;
}
