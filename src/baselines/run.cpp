// The run Session every driver wires its runtime with, the one run skeleton
// (session -> plan -> run -> capture) and the plans it runs: the paper's
// BLAS benchmarks and the Fig. 8 composition.  Workload plans live in
// workload_entry.cpp.
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baselines/common.hpp"
#include "fault/injector.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"

namespace xkb::baselines {

namespace {

template <typename T>
void coherent_matrix(rt::Runtime& runtime, MatrixView<const T> m,
                     std::size_t ts) {
  for (std::size_t i = 0; i < m.m; i += ts)
    for (std::size_t j = 0; j < m.n; j += ts) {
      mem::DataHandle* h = blas::detail::tile_handle(
          runtime, m, i, j, std::min(ts, m.m - i), std::min(ts, m.n - j));
      runtime.coherent_async(h);
    }
}

template <typename T>
void distribute_matrix(rt::Runtime& runtime, MatrixView<const T> m,
                       std::size_t ts) {
  const auto owner =
      blas::block_cyclic(blas::default_grid(runtime.num_gpus()));
  for (std::size_t i = 0; i < m.m; i += ts)
    for (std::size_t j = 0; j < m.n; j += ts) {
      mem::DataHandle* h = blas::detail::tile_handle(
          runtime, m, i, j, std::min(ts, m.m - i), std::min(ts, m.n - j));
      const int dev = owner(i / ts, j / ts);
      h->home_device = dev;
      rt::TaskDesc d;
      d.label = "dist";
      d.accesses.push_back({h, rt::Access::kR});
      d.forced_device = dev;
      runtime.submit(std::move(d));
    }
}

/// A BLAS plan's data movement: `operands` are staged in this order by
/// data-on-device, `result` is brought home by data-on-host, and together
/// they are the footprint of Chameleon LAPACK's layout conversions.
template <typename T>
void set_operands(
    RoutinePlan& plan, rt::Runtime& runtime, std::size_t ts,
    const std::vector<std::shared_ptr<SymbolicMatrix<T>>>& operands,
    const std::shared_ptr<SymbolicMatrix<T>>& result) {
  const MatrixView<const T> r = result->cview();
  const double mat_bytes = static_cast<double>(r.m) * r.n * sizeof(T);
  plan.input_bytes = static_cast<double>(operands.size()) * mat_bytes;
  plan.output_bytes = mat_bytes;
  plan.distribute = [&runtime, operands, ts] {
    for (const auto& m : operands) distribute_matrix(runtime, m->cview(), ts);
  };
  plan.coherent = [&runtime, result, ts] {
    coherent_matrix(runtime, result->cview(), ts);
  };
}

}  // namespace

blas::EmitOptions emit_options(const ModelSpec& spec, std::size_t tile,
                               int num_gpus) {
  blas::EmitOptions emit;
  emit.tile = tile;
  emit.attach_functional = false;
  emit.flush_outputs_each_task = spec.flush_outputs_each_task;
  auto bc = blas::block_cyclic(blas::default_grid(num_gpus));
  if (spec.static_block_cyclic)
    emit.force_place = std::move(bc);
  else
    emit.home = std::move(bc);
  return emit;
}

RoutinePlan plan_routine(rt::Runtime& runtime, Blas3 routine, std::size_t n,
                         const blas::EmitOptions& emit) {
  using Z = std::complex<double>;
  RoutinePlan plan;
  plan.flops = routine_flops(routine, static_cast<double>(n));
  const std::size_t ts = emit.tile;

  auto A = std::make_shared<SymbolicMatrix<double>>(n, n, 0);
  auto B = std::make_shared<SymbolicMatrix<double>>(n, n, 1);
  auto C = std::make_shared<SymbolicMatrix<double>>(n, n, 2);
  auto ZA = std::make_shared<SymbolicMatrix<Z>>(n, n, 3);
  auto ZB = std::make_shared<SymbolicMatrix<Z>>(n, n, 4);
  auto ZC = std::make_shared<SymbolicMatrix<Z>>(n, n, 5);
  auto& rt = runtime;

  switch (routine) {
    case Blas3::kGemm:
      plan.emit = [&rt, A, B, C, emit] {
        blas::tiled_gemm(rt, Op::NoTrans, Op::NoTrans, 1.0, A->cview(),
                         B->cview(), 1.0, C->view(), emit);
      };
      set_operands<double>(plan, rt, ts, {A, B, C}, C);
      break;
    case Blas3::kSymm:
      plan.emit = [&rt, A, B, C, emit] {
        blas::tiled_symm(rt, Side::Left, Uplo::Lower, 1.0, A->cview(),
                         B->cview(), 1.0, C->view(), emit);
      };
      set_operands<double>(plan, rt, ts, {A, B, C}, C);
      break;
    case Blas3::kSyrk:
      plan.emit = [&rt, A, C, emit] {
        blas::tiled_syrk(rt, Uplo::Lower, Op::NoTrans, 1.0, A->cview(), 1.0,
                         C->view(), emit);
      };
      set_operands<double>(plan, rt, ts, {A, C}, C);
      break;
    case Blas3::kSyr2k:
      plan.emit = [&rt, A, B, C, emit] {
        blas::tiled_syr2k(rt, Uplo::Lower, Op::NoTrans, 1.0, A->cview(),
                          B->cview(), 1.0, C->view(), emit);
      };
      set_operands<double>(plan, rt, ts, {A, B, C}, C);
      break;
    case Blas3::kTrmm:
      plan.emit = [&rt, A, B, emit] {
        blas::tiled_trmm(rt, Side::Left, Uplo::Lower, Op::NoTrans,
                         Diag::NonUnit, 1.0, A->cview(), B->view(), emit);
      };
      set_operands<double>(plan, rt, ts, {A, B}, B);
      break;
    case Blas3::kTrsm:
      plan.emit = [&rt, A, B, emit] {
        blas::tiled_trsm(rt, Side::Left, Uplo::Lower, Op::NoTrans,
                         Diag::NonUnit, 1.0, A->cview(), B->view(), emit);
      };
      set_operands<double>(plan, rt, ts, {A, B}, B);
      break;
    case Blas3::kHemm:
      plan.emit = [&rt, ZA, ZB, ZC, emit] {
        blas::tiled_hemm(rt, Side::Left, Uplo::Lower, Z{1.0}, ZA->cview(),
                         ZB->cview(), Z{1.0}, ZC->view(), emit);
      };
      set_operands<Z>(plan, rt, ts, {ZA, ZB, ZC}, ZC);
      plan.flops *= 4.0;  // complex arithmetic
      break;
    case Blas3::kHerk:
      plan.emit = [&rt, ZA, ZC, emit] {
        blas::tiled_herk(rt, Uplo::Lower, Op::NoTrans, 1.0, ZA->cview(), 1.0,
                         ZC->view(), emit);
      };
      set_operands<Z>(plan, rt, ts, {ZA, ZC}, ZC);
      plan.flops *= 4.0;
      break;
    case Blas3::kHer2k:
      plan.emit = [&rt, ZA, ZB, ZC, emit] {
        blas::tiled_her2k(rt, Uplo::Lower, Op::NoTrans, Z{1.0}, ZA->cview(),
                          ZB->cview(), 1.0, ZC->view(), emit);
      };
      set_operands<Z>(plan, rt, ts, {ZA, ZB, ZC}, ZC);
      plan.flops *= 4.0;
      break;
  }
  return plan;
}

obs::RunReport BenchResult::report() const {
  return obs::build_report(*trace, *topology, obs.get());
}

obs::RunLedger BenchResult::ledger(obs::RunReport report) const {
  return obs::build_ledger(std::move(report), obs.get(), event_hash,
                           obs->ledger_meta());
}

Session::Session(const ModelSpec& spec, const RunConfig& cfg,
                 obs::LedgerMeta id) {
  cfg.validate();
  rt::PerfModel perf;
  perf.peak_flops_dp *= spec.peak_scale;
  rt::PlatformOptions popt;
  popt.device_capacity = cfg.device_capacity;
  popt.eviction = spec.eviction;
  plat_ = std::make_unique<rt::Platform>(cfg.topology, perf, popt);

  if (cfg.obs.enabled) {
    obs_ = std::make_shared<obs::Observability>(plat_->num_gpus());
    // Before the Runtime: it caches series pointers.
    plat_->set_obs(obs_.get());
    // Registered up front, so a watchdog-stall dump composed inside the
    // runtime still names the run.
    obs_->set_ledger_meta(std::move(id));
  }
  if (!cfg.fault_plan.empty()) {
    inj_ = std::make_unique<fault::Injector>(cfg.fault_plan);
    // Before the Runtime: its constructor binds the device-fail hook and
    // arms the plan's silent events against the engine.
    plat_->set_fault(inj_.get());
  }

  rt::RuntimeOptions ropt;
  ropt.heuristics = spec.heur;
  ropt.drop_inputs_after_use = spec.drop_inputs;
  ropt.task_overhead = spec.task_overhead;
  ropt.prepare_window = spec.prepare_window;
  ropt.check = cfg.check;
  std::unique_ptr<rt::Scheduler> sched;
  if (spec.dmdas)
    sched = std::make_unique<rt::DmdasScheduler>();
  else
    sched = std::make_unique<rt::OwnerComputesScheduler>(spec.stealing);
  runtime_ = std::make_unique<rt::Runtime>(*plat_, std::move(sched), ropt);
}

Session::~Session() = default;

// Runtime::on_stuck stashes its own dump (with the pre-stall ledger
// snapshot) before the StuckProgress throw; "first dump wins", so this only
// fills in for failures that bypassed on_stuck (OOM, retries exhausted,
// data loss, checker violations seen after the run).
void Session::compose_flight(BenchResult& res, const std::string& reason) {
  if (!obs_) return;
  if (obs_->flight_dump().empty()) {
    obs_->finalize_registry(plat_->trace());
    const obs::RunLedger snap = obs::build_ledger(
        plat_->trace(), plat_->topology(), obs_.get(), 0, obs_->ledger_meta());
    obs_->set_flight_dump(
        obs_->flight().dump_json(reason, obs::ledger_json(snap)));
  }
  res.flight_json = obs_->flight_dump();
  res.obs = obs_;
}

void Session::fail(BenchResult& res, const char* kind,
                   const std::exception& e) {
  res.failed = true;
  res.error = e.what();
  compose_flight(res, std::string(kind) + ": " + e.what());
}

void Session::capture(BenchResult& res) {
  rt::Platform& plat = *plat_;
  rt::Runtime& runtime = *runtime_;
  res.breakdown = plat.trace().breakdown();
  res.per_gpu = plat.trace().per_device_breakdown(plat.num_gpus());
  res.transfers = runtime.data_manager().stats();
  res.steals = runtime.steals();
  res.tasks = runtime.tasks_completed();
  res.events_processed = plat.engine().events_processed();
  res.events_observable = plat.engine().observable_processed();
  res.events_peak_pending = plat.engine().peak_pending();
  if (inj_) {
    res.task_remaps = runtime.task_remaps();
    res.task_replays = runtime.task_replays();
    const rt::TransferStats& ts = res.transfers;
    std::ostringstream js;
    js << "{\"injector\":" << inj_->counters_json()
       << ",\"unconsumed_xfail\":" << inj_->unconsumed_transfer_faults()
       << ",\"recovery\":{\"transfer_aborts\":" << ts.transfer_aborts
       << ",\"transfer_retries\":" << ts.transfer_retries
       << ",\"waiter_replans\":" << ts.waiter_replans
       << ",\"task_remaps\":" << res.task_remaps
       << ",\"task_replays\":" << res.task_replays << "}}";
    res.fault_json = js.str();
  }
  if (const check::Checker* c = runtime.checker()) {
    res.check_ok = c->ok();
    res.check_violations = c->total_violations();
    res.check_report = c->report();
    res.event_hash = c->event_hash();
  }
  if (obs_) {
    obs_->finalize_registry(plat.trace());
    res.obs = obs_;
  }
  if (!res.check_ok) compose_flight(res, "checker-violation");
  // Last: the flight dump above may still snapshot the platform's trace.
  if (obs_) {
    res.trace = std::make_shared<trace::Trace>(std::move(plat.trace()));
    res.topology = std::make_shared<topo::Topology>(plat.topology());
  }
}

BenchResult run_plan(const ModelSpec& spec, const RunConfig& cfg,
                     obs::LedgerMeta id, const PlanBuilder& build) {
  id.lib = spec.name;
  id.scenario = cfg.data_on_device ? "data-on-device" : "data-on-host";
  id.seed = cfg.fault_plan.empty() ? 0 : cfg.fault_plan.seed;
  Session session(spec, cfg, std::move(id));
  rt::Runtime& runtime = session.runtime();
  RoutinePlan plan = build(runtime);

  BenchResult res;
  double t0 = 0.0;
  try {
    if (cfg.data_on_device) {
      plan.distribute();
      // run() reports the last *observable* instant: pending silent fault
      // events must not inflate the distribution phase's end time.
      t0 = runtime.run();
      session.platform().trace().clear();
      // Observe only the measured (compute) phase.
      if (session.obs()) session.obs()->clear();
    }
    plan.emit();
    if (!cfg.data_on_device) plan.coherent();
    const double t1 = runtime.run();
    double seconds = t1 - t0;
    seconds += spec.call_overhead * plan.calls;
    if (spec.lapack_conversion)
      seconds += (plan.input_bytes + plan.output_bytes) /
                 session.platform().perf().host_conv_bw;
    res.seconds = seconds;
    res.tflops = plan.flops / seconds / 1e12;
  } catch (const mem::OutOfDeviceMemory& e) {
    session.fail(res, "oom", e);
    return res;
  } catch (const fault::FaultError& e) {
    // Failed-but-diagnosed: the recovery machinery hit its documented
    // limits (retries exhausted, unrecoverable dirty loss, stuck run).
    res.task_remaps = runtime.task_remaps();
    res.task_replays = runtime.task_replays();
    session.fail(res, "fault", e);
    return res;
  }
  session.capture(res);
  return res;
}

BenchResult run_composition(const ModelSpec& spec, std::size_t n,
                            std::size_t tile, bool sync_between_calls,
                            const RunConfig& cfg) {
  if (cfg.data_on_device)
    throw std::invalid_argument(
        "run_composition: the Fig. 8 composition is data-on-host only");
  obs::LedgerMeta id;
  id.routine = "TRSM+GEMM";
  id.n = n;
  id.tile = tile;
  return run_plan(spec, cfg, std::move(id), [&](rt::Runtime& rt) {
    auto A = std::make_shared<SymbolicMatrix<double>>(n, n, 0);
    auto B = std::make_shared<SymbolicMatrix<double>>(n, n, 1);
    auto C = std::make_shared<SymbolicMatrix<double>>(n, n, 2);
    auto D = std::make_shared<SymbolicMatrix<double>>(n, n, 3);
    const blas::EmitOptions emit = emit_options(spec, tile, rt.num_gpus());
    RoutinePlan plan;
    plan.emit = [&rt, A, B, C, D, emit, tile, sync_between_calls] {
      blas::tiled_trsm<double>(rt, Side::Left, Uplo::Lower, Op::NoTrans,
                               Diag::NonUnit, 1.0, A->cview(), B->view(),
                               emit);
      if (sync_between_calls) {
        // Synchronous inter-call semantics: results must be coherent on the
        // host before the next routine starts (paper Section IV-F).
        coherent_matrix(rt, B->cview(), tile);
        rt.run();
      }
      blas::tiled_gemm<double>(rt, Op::NoTrans, Op::NoTrans, 1.0, B->cview(),
                               D->cview(), 1.0, C->view(), emit);
    };
    plan.coherent = [&rt, B, C, tile] {
      coherent_matrix(rt, B->cview(), tile);
      coherent_matrix(rt, C->cview(), tile);
    };
    const double nn = static_cast<double>(n);
    plan.flops = nn * nn * nn + 2.0 * nn * nn * nn;  // TRSM + GEMM
    plan.calls = sync_between_calls ? 2 : 1;
    return plan;
  });
}

}  // namespace xkb::baselines
