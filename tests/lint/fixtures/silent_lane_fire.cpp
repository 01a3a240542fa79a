// xkb-tidy fixture: xkb-silent-lane MUST fire on this file.
//
// A function annotated XKB_SILENT runs on the engine's silent event lane
// (fault triggers, watchdog ticks).  Its contract: when the fault it
// implements is a no-op, the observable event stream is bit-identical to
// a run without it.  Scheduling observable events, bumping metrics,
// emitting trace records or reporting a fact to the platform's
// instrumentation stream from such a function breaks that guarantee.
// Clean twin: silent_lane_clean.cpp.
#include <cstdint>
#include <string>

#define XKB_SILENT

// Stand-ins shaped (and namespaced) like the real engine/obs/trace types,
// so the calls read as they do in src/.
namespace xkb::sim {
using Time = double;
struct Engine {
  template <class F>
  void schedule_at(Time, F&&) {}
  template <class F>
  void schedule_after(Time, F&&) {}
  template <class F>
  void schedule_silent_after(Time, F&&) {}
};
}  // namespace xkb::sim

namespace xkb::obs {
struct Metrics {
  void inc(const std::string&, double) {}
  void set_gauge(const std::string&, double) {}
};
}  // namespace xkb::obs

namespace xkb::trace {
struct Trace {
  void add(const std::string&, double, double) {}
};
}  // namespace xkb::trace

namespace xkb::rt {
struct Platform {
  void report_retry() {}
};
}  // namespace xkb::rt

namespace fixture {

struct FaultTrigger {
  xkb::sim::Engine* eng_;
  xkb::obs::Metrics* metrics_;
  xkb::trace::Trace* trace_;
  xkb::rt::Platform* plat_;

  // Observable-lane scheduling from the silent lane.
  XKB_SILENT void fire_reschedule(double t) {
    eng_->schedule_after(t, [] {});
  }

  // Metrics mutation from the silent lane.
  XKB_SILENT void fire_count() { metrics_->inc("fault.count", 1.0); }

  // Trace record emission from the silent lane.
  XKB_SILENT void fire_trace(double t) {
    trace_->add("fault.window", t, t + 1.0);
  }

  // An instrumentation report from the silent lane.
  XKB_SILENT void fire_report() { plat_->report_retry(); }
};

}  // namespace fixture
