// Tests of xkb::obs -- the metrics registry, the link-utilization probes,
// decision/flow capture, the critical-path analyzer and the enriched trace
// exports.
//
// Three groups: unit tests of the pieces (registry semantics the hot paths
// rely on, histogram bucketing, hand-built critical-path DAGs with known
// answers), invariant tests over a real observed run (probe occupancy vs
// trace records -- the two accounting paths must agree where they measure
// the same thing and differ exactly where documented), and export format
// tests (hostile CSV labels round-trip, control characters stay valid JSON,
// the enriched Chrome export carries the decision/flow/counter tracks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/common.hpp"
#include "baselines/library_model.hpp"
#include "blas/tiled.hpp"
#include "obs/critical_path.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "util/json.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scheduler.hpp"
#include "tdl/presets.hpp"
#include "trace/export.hpp"
#include "workload/bridge.hpp"

namespace xkb::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(Metrics, CounterAndSeriesAddressesAreStable) {
  MetricsRegistry reg;
  double* c = &reg.counter("a");
  Series* s = &reg.series("s");
  for (int i = 0; i < 100; ++i) {
    std::string k = "k", sn = "sn";
    k += std::to_string(i);
    sn += std::to_string(i);
    reg.counter(k) = i;
    reg.series(sn).sample(i, i);
  }
  EXPECT_EQ(c, &reg.counter("a"));
  EXPECT_EQ(s, &reg.series("s"));
}

TEST(Metrics, ResetValuesKeepsRegisteredNamesAndAddresses) {
  MetricsRegistry reg;
  double* c = &reg.counter("a");
  *c = 7.0;
  Series* s = &reg.series("s");
  s->sample(1.0, 2.0);
  reg.set_gauge("g", 3.0);
  reg.reset_values();
  EXPECT_TRUE(reg.has_counter("a"));
  EXPECT_EQ(c, &reg.counter("a"));
  EXPECT_EQ(0.0, *c);
  EXPECT_EQ(s, &reg.series("s"));
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(0.0, reg.gauge_value("g"));
}

TEST(Metrics, SeriesDeduplicatesAndOverwritesAtSameInstant) {
  Series s;
  s.sample(0.0, 1.0);
  s.sample(1.0, 1.0);  // same value: dropped (the series records changes)
  s.sample(2.0, 5.0);
  s.sample(2.0, 9.0);  // same instant: last write wins
  ASSERT_EQ(2u, s.points().size());
  EXPECT_EQ(1.0, s.points()[0].v);
  EXPECT_EQ(2.0, s.points()[1].t);
  EXPECT_EQ(9.0, s.points()[1].v);
  EXPECT_EQ(9.0, s.last());
}

TEST(Metrics, JsonIsDeterministicAndOrdered) {
  MetricsRegistry a, b;
  a.counter("z") = 1.0;
  a.counter("a") = 2.0;
  a.series("s").sample(0.5, 3.0);
  b.counter("a") = 2.0;  // reversed insertion order
  b.counter("z") = 1.0;
  b.series("s").sample(0.5, 3.0);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(std::string::npos, a.to_json().find("\"counters\""));
  EXPECT_NE(std::string::npos, a.to_json().find("\"series\""));
}

TEST(DelayHistogram, ZerosLandInBucketZeroAndQuantileIsCappedByMax) {
  DelayHistogram h;
  for (int i = 0; i < 90; ++i) h.add(0.0);
  for (int i = 0; i < 10; ++i) h.add(3e-3);
  EXPECT_EQ(90u, h.count[0]);
  EXPECT_EQ(0.0, h.quantile(0.5));
  // p95 falls in the (1e-3, 1e-2] bucket whose bound exceeds the observed
  // max; the estimate must not.
  EXPECT_DOUBLE_EQ(3e-3, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(3e-3, h.max);
}

TEST(DelayHistogram, EmptyHistogramReportsZeroEverywhere) {
  const DelayHistogram h;
  EXPECT_EQ(0u, h.n);
  EXPECT_EQ(0.0, h.mean());
  EXPECT_EQ(0.0, h.max);
  for (double q : {0.0, 0.5, 0.95, 1.0}) EXPECT_EQ(0.0, h.quantile(q));
}

TEST(DelayHistogram, SingleBucketQuantilesClampToObservedMax) {
  DelayHistogram h;
  for (int i = 0; i < 5; ++i) h.add(5e-6);  // all in the (1e-6, 1e-5] bucket
  EXPECT_EQ(5u, h.count[2]);
  // Every non-degenerate quantile lands in the one occupied bucket, whose
  // upper bound (1e-5) must be clamped to the observed max.
  for (double q : {0.01, 0.5, 0.95, 1.0}) EXPECT_DOUBLE_EQ(5e-6, h.quantile(q));
}

TEST(DelayHistogram, SaturatedSamplesLandInTheUnboundedTailBucket) {
  DelayHistogram h;
  h.add(0.5);  // beyond the last finite bound (1e-1)
  h.add(0.7);
  EXPECT_EQ(2u, h.count[DelayHistogram::kBuckets - 1]);
  // The tail bucket has no upper bound; the only honest estimate is max.
  EXPECT_DOUBLE_EQ(0.7, h.quantile(0.5));
  EXPECT_DOUBLE_EQ(0.7, h.quantile(1.0));
  EXPECT_DOUBLE_EQ(0.6, h.mean());
}

TEST(DelayHistogram, MergeOfDisjointRangesAddsPointwise) {
  DelayHistogram lo, hi;
  for (int i = 0; i < 4; ++i) lo.add(0.0);
  for (int i = 0; i < 4; ++i) hi.add(2e-2);  // (1e-2, 1e-1] bucket
  DelayHistogram m = lo;
  m.merge(hi);
  EXPECT_EQ(8u, m.n);
  EXPECT_EQ(4u, m.count[0]);
  EXPECT_EQ(4u, m.count[6]);
  EXPECT_DOUBLE_EQ(8e-2, m.sum);
  EXPECT_DOUBLE_EQ(2e-2, m.max);
  EXPECT_EQ(0.0, m.quantile(0.5));           // median still uncontended
  EXPECT_DOUBLE_EQ(2e-2, m.quantile(0.75));  // upper quartile from hi
  // Merging an empty histogram is the identity.
  DelayHistogram copy = m;
  m.merge(DelayHistogram{});
  EXPECT_EQ(copy.n, m.n);
  EXPECT_EQ(copy.sum, m.sum);
}

// ----------------------------------------------------------- critical path

trace::Record rec(trace::OpKind k, int dev, double s, double e, int peer = -1,
                  const std::string& label = "gemm") {
  trace::Record r;
  r.kind = k;
  r.device = dev;
  r.start = s;
  r.end = e;
  r.peer = peer;
  r.label = label;
  return r;
}

TEST(CriticalPath, HandBuiltDagAttributesEveryClass) {
  // HtoD(0) -> kernel(0) -> PtoP 0->4 (2xNVLink on the DGX-1) -> kernel(4)
  // -> DtoH(4), each enabled exactly by its predecessor's completion.
  const topo::Topology topo = topo::Topology::dgx1();
  ASSERT_EQ(topo::LinkClass::kNVLink2, topo.link_class(0, 4));
  trace::Trace tr;
  tr.add(rec(trace::OpKind::kHtoD, 0, 0.0, 1.0));
  tr.add(rec(trace::OpKind::kKernel, 0, 1.0, 3.0));
  tr.add(rec(trace::OpKind::kPtoP, 4, 3.0, 3.5, /*peer=*/0));
  tr.add(rec(trace::OpKind::kKernel, 4, 3.5, 5.0));
  tr.add(rec(trace::OpKind::kDtoH, 4, 5.0, 5.6));
  const CriticalPath cp = critical_path(tr, topo);
  EXPECT_EQ(5u, cp.ops.size());
  EXPECT_DOUBLE_EQ(3.5, cp.kernel);
  EXPECT_DOUBLE_EQ(1.6, cp.host);
  EXPECT_DOUBLE_EQ(0.5, cp.nvlink2);
  EXPECT_DOUBLE_EQ(0.0, cp.nvlink1);
  EXPECT_DOUBLE_EQ(0.0, cp.pcie);
  EXPECT_DOUBLE_EQ(0.0, cp.idle);
  EXPECT_DOUBLE_EQ(5.6, cp.span);
  EXPECT_DOUBLE_EQ(0.5 / 2.1, cp.nvlink_share());
  EXPECT_DOUBLE_EQ(3.5, cp.kernel_by_label.at("gemm"));
}

TEST(CriticalPath, PrefersCausalEnablerOverCoincidence) {
  // Two records end exactly when the dev-1 kernel starts: a kernel on an
  // unrelated device (longer) and the PtoP that delivered the operand to
  // dev 1.  The causal score must pick the transfer.
  const topo::Topology topo = topo::Topology::dgx1();
  trace::Trace tr;
  tr.add(rec(trace::OpKind::kKernel, 5, 0.0, 2.0, -1, "bystander"));
  tr.add(rec(trace::OpKind::kPtoP, 1, 1.5, 2.0, /*peer=*/0));
  tr.add(rec(trace::OpKind::kKernel, 1, 2.0, 3.0, -1, "consumer"));
  const CriticalPath cp = critical_path(tr, topo);
  ASSERT_EQ(topo::LinkClass::kNVLink1, topo.link_class(0, 1));
  EXPECT_DOUBLE_EQ(0.5, cp.nvlink1);
  EXPECT_EQ(1u, cp.kernel_by_label.count("consumer"));
  EXPECT_EQ(0u, cp.kernel_by_label.count("bystander"));
}

TEST(CriticalPath, TaskOverheadSliverCountsAsIdleNotABreak) {
  // The enabling transfer finishes 3us before the kernel starts (task
  // overhead); the walk must bridge the sliver and charge it as idle.
  const topo::Topology topo = topo::Topology::dgx1();
  trace::Trace tr;
  tr.add(rec(trace::OpKind::kPtoP, 1, 0.0, 1.0, /*peer=*/0));
  tr.add(rec(trace::OpKind::kKernel, 1, 1.000003, 2.0));
  const CriticalPath cp = critical_path(tr, topo);
  EXPECT_EQ(2u, cp.ops.size());
  EXPECT_DOUBLE_EQ(1.0, cp.nvlink1);
  EXPECT_NEAR(3e-6, cp.idle, 1e-12);
}

TEST(CriticalPath, GapsAndWindowStartAreIdle) {
  // A trace cleared mid-run starts at t0 = 10; the dev-0 kernels have a
  // true scheduling gap between them.
  const topo::Topology topo = topo::Topology::dgx1();
  trace::Trace tr;
  tr.add(rec(trace::OpKind::kKernel, 0, 10.0, 11.0));
  tr.add(rec(trace::OpKind::kKernel, 0, 12.0, 13.0));
  const CriticalPath cp = critical_path(tr, topo);
  EXPECT_EQ(2u, cp.ops.size());
  EXPECT_DOUBLE_EQ(2.0, cp.kernel);
  EXPECT_DOUBLE_EQ(1.0, cp.idle);  // only the inter-kernel gap
  EXPECT_DOUBLE_EQ(3.0, cp.span);  // relative to the window start
}

// ------------------------------------------------- observed-run invariants

struct ObservedRun {
  rt::Platform plat;
  Observability o;
  rt::TransferStats stats;

  explicit ObservedRun(Blas3 routine, std::size_t n,
                       std::size_t tile,
                       rt::HeuristicConfig heur = rt::HeuristicConfig::xkblas())
      : plat(topo::Topology::dgx1(), rt::PerfModel{}, {}),
        o(plat.num_gpus()) {
    plat.set_obs(&o);  // before the Runtime: it caches series pointers
    rt::RuntimeOptions ropt;
    ropt.heuristics = heur;
    ropt.task_overhead = 3e-6;
    ropt.prepare_window = 16;
    rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>(),
                        ropt);
    blas::EmitOptions emit;
    emit.tile = tile;
    emit.attach_functional = false;
    emit.home = blas::block_cyclic(blas::default_grid(plat.num_gpus()));
    baselines::RoutinePlan plan =
        baselines::plan_routine(runtime, routine, n, emit);
    plan.emit();
    plan.coherent();
    runtime.run();
    stats = runtime.data_manager().stats();
    o.finalize_registry(plat.trace());
  }
};

// The registry's op-class numbers are the op trace's, exactly: counts,
// per-class time and bytes overall and per GPU -- and its wait counts are
// the decision list's.
void expect_registry_matches_trace(const Observability& o,
                                   const trace::Trace& tr) {
  const MetricsRegistry& m = o.metrics();
  std::map<trace::OpKind, double> count;
  for (const trace::Record& rec : tr.records()) ++count[rec.kind];
  EXPECT_EQ(count[trace::OpKind::kHtoD], m.counter_value("transfers.h2d"));
  EXPECT_EQ(count[trace::OpKind::kPtoP], m.counter_value("transfers.d2d"));
  EXPECT_EQ(count[trace::OpKind::kDtoH], m.counter_value("transfers.d2h"));
  EXPECT_EQ(static_cast<double>(tr.bytes(trace::OpKind::kHtoD)),
            m.counter_value("bytes.htod"));
  EXPECT_EQ(static_cast<double>(tr.bytes(trace::OpKind::kPtoP)),
            m.counter_value("bytes.ptop"));
  EXPECT_EQ(static_cast<double>(tr.bytes(trace::OpKind::kDtoH)),
            m.counter_value("bytes.dtoh"));
  for (int g = -1; g < o.num_gpus(); ++g) {
    const trace::Breakdown b = tr.breakdown(g);
    const std::string p = g < 0 ? "" : "gpu" + std::to_string(g) + ".";
    EXPECT_EQ(b.kernel, m.counter_value(p + "time.kernel")) << p;
    EXPECT_EQ(b.htod, m.counter_value(p + "time.htod")) << p;
    EXPECT_EQ(b.dtoh, m.counter_value(p + "time.dtoh")) << p;
    EXPECT_EQ(b.ptop, m.counter_value(p + "time.ptop")) << p;
  }
  double optimistic = 0, forced = 0;
  for (const Decision& d : o.decisions())
    if (d.pick == trace::SourceKind::kWaitDevice) ++(d.forced ? forced : optimistic);
  EXPECT_EQ(optimistic, m.counter_value("waits.optimistic"));
  EXPECT_EQ(forced, m.counter_value("waits.forced"));
}

TEST(ObservedRun, LinkProbesMatchTraceOccupancy) {
  ObservedRun r(Blas3::kGemm, 4096, 512);
  const trace::Trace& tr = r.plat.trace();
  const double span = tr.span() - tr.t0();
  ASSERT_GT(span, 0.0);

  // Per-directed-link PtoP occupancy from the records, to compare against
  // the probes one-to-one (the op trace and the probes see the same
  // submissions on peer channels).
  std::map<std::pair<int, int>, double> p2p_busy;
  std::map<std::pair<int, int>, std::size_t> p2p_bytes;
  std::map<int, double> h2d_busy;  // per host link, from HtoD records
  for (const trace::Record& rec : tr.records()) {
    if (rec.kind == trace::OpKind::kPtoP) {
      p2p_busy[{rec.peer, rec.device}] += rec.end - rec.start;
      p2p_bytes[{rec.peer, rec.device}] += rec.bytes;
    } else if (rec.kind == trace::OpKind::kHtoD) {
      h2d_busy[r.plat.topology().host_link_of(rec.device)] +=
          rec.end - rec.start;
    }
  }

  std::size_t probes_with_ops = 0;
  for (const auto& l : r.o.links()) {
    if (l->ops() == 0) continue;
    ++probes_with_ops;
    // No probe can be busier than the traced window is long.
    EXPECT_LE(l->busy(), span * (1.0 + 1e-9)) << l->name();
    if (l->dir() == LinkDir::kP2P) {
      const auto key = std::make_pair(l->src(), l->dst());
      ASSERT_TRUE(p2p_busy.count(key)) << l->name();
      EXPECT_NEAR(p2p_busy[key], l->busy(), 1e-9 * (1.0 + p2p_busy[key]))
          << l->name();
      EXPECT_EQ(p2p_bytes[key], l->bytes()) << l->name();
    } else if (l->dir() == LinkDir::kH2D) {
      // Probes also see the shadow submissions of cross-switch PCIe peer
      // copies, which the op trace omits: probe busy >= record busy.
      EXPECT_GE(l->busy() + 1e-12, h2d_busy[l->dst()]) << l->name();
    }
  }
  EXPECT_GT(probes_with_ops, 0u);

  // Every PtoP pair in the trace has a probe counterpart.
  for (const auto& [key, busy] : p2p_busy) {
    const auto it = std::find_if(
        r.o.links().begin(), r.o.links().end(), [key = key](const auto& l) {
          return l->dir() == LinkDir::kP2P && l->src() == key.first &&
                 l->dst() == key.second;
        });
    ASSERT_NE(it, r.o.links().end());
    EXPECT_GT((*it)->ops(), 0u);
  }
}

TEST(ObservedRun, FlowsMatchWaitCountsAndTotalsMatchTrace) {
  ObservedRun r(Blas3::kGemm, 4096, 512);
  // Every optimistic or forced wait chains exactly one forwarded D2D copy.
  EXPECT_EQ(r.stats.optimistic_waits + r.stats.forced_waits,
            r.o.flows().size());
  EXPECT_GT(r.o.flows().size(), 0u);  // the heuristic must actually fire
  for (const Flow& f : r.o.flows()) {
    EXPECT_GE(f.dst_iv.start, f.src_iv.end - 1e-12);  // chained after rx
    EXPECT_NE(f.src_dev, f.dst_dev);
  }
  expect_registry_matches_trace(r.o, r.plat.trace());
  // Nothing was cleared: the run's own counters agree too.
  const MetricsRegistry& m = r.o.metrics();
  EXPECT_EQ(static_cast<double>(r.stats.h2d), m.counter_value("transfers.h2d"));
  EXPECT_EQ(static_cast<double>(r.stats.d2d), m.counter_value("transfers.d2d"));
  EXPECT_EQ(static_cast<double>(r.stats.d2h), m.counter_value("transfers.d2h"));
  EXPECT_EQ(static_cast<double>(r.stats.optimistic_waits),
            m.counter_value("waits.optimistic"));
  EXPECT_EQ(static_cast<double>(r.stats.forced_waits),
            m.counter_value("waits.forced"));
}

// Each flow names the reception its forwarded copy chained off, keyed by
// (tile, device).  Packing that pair into one word aliased (tile 4, gpu256)
// with (tile 5, gpu0), so from 256 devices up a flow could name another
// tile's reception.  A 17x16 fat tree (272 devices) exposes it.
TEST(ObservedRun, FlowsChainAfterTheirReceptionOnA272DeviceFatTree) {
  tdl::FatTreeSpec spec;
  spec.nodes = 17;
  spec.gpus_per_node = 16;
  rt::Platform plat(topo::Topology::from_machine(tdl::fat_tree_machine(spec)),
                    rt::PerfModel{}, {});
  ASSERT_EQ(272, plat.num_gpus());
  Observability o(plat.num_gpus());
  plat.set_obs(&o);
  rt::Runtime runtime(plat, std::make_unique<rt::OwnerComputesScheduler>());
  const wl::WorkloadGraph g =
      wl::build(wl::WorkloadSpec::parse("stencil_1d:width=544,depth=8"));
  wl::BridgeOptions bopt;
  bopt.home = [n = plat.num_gpus()](std::size_t i, std::size_t) {
    return static_cast<int>(i % static_cast<std::size_t>(n));
  };
  wl::Bridge bridge(runtime, g, std::move(bopt));
  bridge.emit();
  bridge.coherent();
  runtime.run();
  ASSERT_GT(o.flows().size(), 0u);
  std::size_t early = 0;
  for (const Flow& f : o.flows())
    if (f.dst_iv.start < f.src_iv.end - 1e-12) ++early;
  EXPECT_EQ(0u, early) << "of " << o.flows().size() << " flows";
}

TEST(ObservedRun, DecisionsCoverEveryMissAndRegistryNamesExist) {
  ObservedRun r(Blas3::kGemm, 4096, 512);
  EXPECT_GT(r.o.decisions().size(), 0u);
  for (const Decision& d : r.o.decisions()) {
    EXPECT_GE(d.dst, 0);
    if (d.pick == trace::SourceKind::kDevice ||
        d.pick == trace::SourceKind::kWaitDevice) {
      EXPECT_GE(d.picked_dev, 0);
    }
  }
  const MetricsRegistry& m = r.o.metrics();
  for (const char* name :
       {"transfers.h2d", "transfers.d2d", "transfers.d2h", "waits.optimistic",
        "waits.forced", "time.kernel", "time.htod", "time.ptop",
        "cache.hits", "cache.misses", "decisions", "flows",
        "gpu0.time.kernel", "gpu0.cache.misses"})
    EXPECT_TRUE(m.has_counter(name)) << name;
  EXPECT_EQ(static_cast<double>(r.o.decisions().size()),
            m.counter_value("decisions"));
  // Ready-queue depth was sampled for at least one device.
  bool any_ready = false;
  for (const auto& [name, s] : m.series_map())
    if (name.rfind("ready.gpu", 0) == 0 && !s.empty()) any_ready = true;
  EXPECT_TRUE(any_ready);
}

// ------------------------------------------------------------------ export

TEST(Export, EnrichedChromeJsonCarriesDecisionFlowAndCounterTracks) {
  ObservedRun r(Blas3::kGemm, 4096, 512);
  const std::string j = to_chrome_json(r.plat.trace(), r.o);
  EXPECT_NE(std::string::npos, j.find("\"ph\": \"s\""));   // flow start
  EXPECT_NE(std::string::npos, j.find("\"bp\": \"e\""));   // enclosing-slice
  EXPECT_NE(std::string::npos, j.find("\"ph\": \"f\""));   // flow finish
  EXPECT_NE(std::string::npos, j.find("optimistic-chain"));
  EXPECT_NE(std::string::npos, j.find("ready-queue"));     // counter track
  EXPECT_NE(std::string::npos, j.find("\"decide\""));      // decision track
  EXPECT_NE(std::string::npos, j.find("pick:"));
  // Object form with a provenance stamp wrapping the traceEvents array.
  EXPECT_EQ('{', j.front());
  EXPECT_NE(std::string::npos, j.find("\"provenance\""));
  EXPECT_NE(std::string::npos, j.find("\"xkb.obs.trace/1\""));
  EXPECT_NE(std::string::npos, j.find("\"traceEvents\": ["));
  EXPECT_EQ('\n', j.back());
  EXPECT_EQ('}', j[j.size() - 2]);
}

TEST(Export, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ("a\\u0001b", trace::json_escape(std::string("a\x01") + "b"));
  EXPECT_EQ("\\\"\\\\", trace::json_escape("\"\\"));
  EXPECT_EQ("\\n\\t\\r", trace::json_escape("\n\t\r"));
  EXPECT_EQ("\\u001f", trace::json_escape("\x1f"));
}

TEST(Export, JsonEscapePassesMultiByteUtf8Through) {
  // Continuation bytes are >= 0x80; a signed-char comparison against 0x20
  // would mangle them into \u00xx escapes.  They must pass through intact.
  EXPECT_EQ("caf\xc3\xa9", trace::json_escape("caf\xc3\xa9"));  // 2-byte é
  EXPECT_EQ("\xe6\x97\xa5\xe6\x9c\xac",                         // 3-byte 日本
            trace::json_escape("\xe6\x97\xa5\xe6\x9c\xac"));
  EXPECT_EQ("\xf0\x9f\x98\x80",                                 // 4-byte 😀
            trace::json_escape("\xf0\x9f\x98\x80"));
  // Mixed with characters that do need escaping.
  EXPECT_EQ("\\\"\xc3\xa9\\n", trace::json_escape("\"\xc3\xa9\n"));
}

TEST(Ledger, JsonRoundTripIsByteLossless) {
  ObservedRun r(Blas3::kGemm, 4096, 512);
  LedgerMeta m;
  m.lib = "XKBlas";
  m.routine = "GEMM";
  m.scenario = "data-on-host";
  m.n = 4096;
  m.tile = 512;
  m.seed = 7;
  const RunLedger l = build_ledger(r.plat.trace(), r.plat.topology(), &r.o,
                                   0xdeadbeefcafef00dULL, m);
  const std::string j1 = ledger_json(l);
  const RunLedger l2 = ledger_from_json(util::json_parse(j1));
  // Serialize -> parse -> serialize must be a fixed point: run_diff's file
  // mode and the flight recorder's embedded snapshot both rely on it.
  EXPECT_EQ(j1, ledger_json(l2));
  EXPECT_EQ(l.event_hash, l2.event_hash);
  EXPECT_EQ(l.decisions.size(), l2.decisions.size());
}

// Pins the provenance stamp so a golden artifact does not vary per commit.
struct PinnedProvenance {
  PinnedProvenance() {
    setenv("XKB_GIT_DESCRIBE", "golden", 1);
    setenv("XKB_BUILD_TYPE", "golden", 1);
    setenv("XKB_RUN_DATE", "golden", 1);
  }
  ~PinnedProvenance() {
    unsetenv("XKB_GIT_DESCRIBE");
    unsetenv("XKB_BUILD_TYPE");
    unsetenv("XKB_RUN_DATE");
  }
};

// Compare `got` byte for byte against tests/golden/<file>.  Any intentional
// change to the artifact must regenerate the golden with XKB_UPDATE_GOLDEN=1.
void expect_golden(const std::string& file, const std::string& got) {
  const std::string path = std::string(XKB_GOLDEN_DIR) + "/" + file;
  if (std::getenv("XKB_UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path
                  << " (run with XKB_UPDATE_GOLDEN=1 to generate)";
  std::stringstream want;
  want << in.rdbuf();
  ASSERT_EQ(want.str().size(), got.size())
      << file << " size drifted; regenerate the golden if intended";
  EXPECT_EQ(want.str(), got) << file;
}

// Byte-for-byte golden pin of the enriched Perfetto/Chrome export on a tiny
// fixed run.
TEST(Export, PerfettoGoldenFileIsByteForByteStable) {
  std::string j;
  {
    PinnedProvenance pin;
    ObservedRun r(Blas3::kGemm, 2048, 1024);
    j = to_chrome_json(r.plat.trace(), r.o);
  }
  expect_golden("perfetto_tiny.json", j);
}

// Byte-for-byte pins of a real run's metrics registry and ledger.  The
// data-on-device run clears the trace and obs after its distribution phase,
// so the registry must describe only the measured phase.
TEST(ObsGolden, Syr2kDataOnDeviceMetricsAndLedger) {
  PinnedProvenance pin;
  baselines::BenchConfig cfg;
  cfg.routine = Blas3::kSyr2k;
  cfg.n = 2048;
  cfg.tile = 512;
  cfg.data_on_device = true;
  cfg.check.enabled = true;
  cfg.obs.enabled = true;
  const baselines::BenchResult r =
      baselines::make_xkblas(rt::HeuristicConfig::xkblas())->run(cfg);
  ASSERT_FALSE(r.failed) << r.error;
  ASSERT_TRUE(r.check_ok) << r.check_report;
  expect_golden("metrics_syr2k_dod.json", r.metrics_json);
  expect_golden("ledger_syr2k_dod.json", r.ledger_json);
}

// Aborts and retries feed the registry too: a seeded plan of transient
// transfer failures on a data-on-host GEMM.
TEST(ObsGolden, GemmTransientFailuresMetrics) {
  PinnedProvenance pin;
  baselines::BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 2048;
  cfg.tile = 512;
  cfg.check.enabled = true;
  cfg.obs.enabled = true;
  cfg.fault_plan.seed = 11;
  cfg.fault_plan.fail_prob = 0.05;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kTransferFail;
  e.xfer = fault::TransferKind::kAny;
  for (double t : {0.0, 1e-4, 2e-4}) {
    e.t = t;
    cfg.fault_plan.events.push_back(e);
  }
  const baselines::BenchResult r =
      baselines::make_xkblas(rt::HeuristicConfig::xkblas())->run(cfg);
  ASSERT_FALSE(r.failed) << r.error;
  ASSERT_TRUE(r.check_ok) << r.check_report;
  ASSERT_GT(r.transfers.transfer_aborts, 0u);
  ASSERT_GT(r.transfers.transfer_retries, 0u);
  expect_golden("metrics_gemm_xfail.json", r.metrics_json);
}

TEST(Export, HostileLabelsRoundTripThroughCsv) {
  trace::Trace tr;
  trace::Record a = rec(trace::OpKind::kKernel, 0, 0.0, 1.0);
  a.label = "gemm, \"quoted\"\nnewline";
  tr.add(a);
  trace::Record b = rec(trace::OpKind::kPtoP, 2, 1.0, 1.25, /*peer=*/3);
  b.label = ",,\"\",\r\n";
  b.bytes = 123;
  b.queued = 0.5;
  tr.add(b);
  const trace::Trace back = trace::from_csv(trace::to_csv(tr));
  ASSERT_EQ(2u, back.records().size());
  EXPECT_EQ(a.label, back.records()[0].label);
  EXPECT_EQ(b.label, back.records()[1].label);
  EXPECT_EQ(3, back.records()[1].peer);
  EXPECT_EQ(123u, back.records()[1].bytes);
  EXPECT_DOUBLE_EQ(0.5, back.records()[1].queued);
  EXPECT_DOUBLE_EQ(1.25, back.records()[1].end);
}

// ----------------------------------------------------- bench-config plumbing

TEST(BenchObs, ModelRunPopulatesMetricsJsonAndReconcilesUnderCheck) {
  // Data on device clears the trace and obs after the distribution phase;
  // the registry must still describe exactly the traced (measured) window.
  for (const auto& [routine, dod] :
       {std::pair{Blas3::kGemm, false}, std::pair{Blas3::kSyr2k, true}}) {
    baselines::BenchConfig cfg;
    cfg.routine = routine;
    cfg.n = 4096;
    cfg.tile = 512;
    cfg.data_on_device = dod;
    cfg.check.enabled = true;
    cfg.obs.enabled = true;
    auto model = baselines::make_xkblas(rt::HeuristicConfig::xkblas());
    const baselines::BenchResult r = model->run(cfg);
    ASSERT_FALSE(r.failed);
    EXPECT_TRUE(r.check_ok) << r.check_report;
    ASSERT_TRUE(r.obs);
    ASSERT_TRUE(r.trace);
    ASSERT_FALSE(r.metrics_json.empty());
    EXPECT_NE(std::string::npos, r.metrics_json.find("\"critical_path\""));
    EXPECT_NE(std::string::npos, r.metrics_json.find("\"metrics\""));
    EXPECT_NE(std::string::npos, r.metrics_json.find("\"links\""));
    expect_registry_matches_trace(*r.obs, *r.trace);
    EXPECT_EQ(r.breakdown.kernel,
              r.obs->metrics().counter_value("time.kernel"));
  }
}

TEST(BenchObs, DisabledObsLeavesResultEmpty) {
  baselines::BenchConfig cfg;
  cfg.routine = Blas3::kGemm;
  cfg.n = 4096;
  cfg.tile = 512;
  auto model = baselines::make_xkblas(rt::HeuristicConfig::xkblas());
  const baselines::BenchResult r = model->run(cfg);
  ASSERT_FALSE(r.failed);
  EXPECT_FALSE(r.obs);
  EXPECT_TRUE(r.metrics_json.empty());
}

}  // namespace
}  // namespace xkb::obs
