// xkb-tidy fixture: xkb-silent-lane must stay SILENT here.
//
// The sanctioned patterns for silent-lane callbacks: re-arm via
// schedule_silent_* (silent events never enter the observable stream or
// the hash), mutate private counters (observable only when a report is
// explicitly requested after the run), and hand consequences to hooks
// bound by the platform/runtime layer -- the hook target is where
// observable mutation legally happens, outside the annotated function.
#include <cstdint>
#include <functional>
#include <string>

#define XKB_SILENT

namespace xkb::sim {
using Time = double;
struct Engine {
  template <class F>
  void schedule_at(Time, F&&) {}
  template <class F>
  void schedule_silent_at(Time, F&&) {}
  template <class F>
  void schedule_silent_after(Time, F&&) {}
};
}  // namespace xkb::sim

namespace fixture {

struct FaultTrigger {
  xkb::sim::Engine* eng_;
  std::uint64_t fired_ = 0;
  std::function<void(int, int)> link_down_hook_;

  // Re-arming through the silent lane keeps the tick bit-invisible.
  XKB_SILENT void tick(double interval) {
    ++fired_;  // private counter, folded into reports only on request
    eng_->schedule_silent_after(interval, [this, interval] {
      tick(interval);
    });
  }

  // Consequences go through the bound hook; the hook body lives at the
  // platform layer and is outside this function's silent contract.
  XKB_SILENT void fire_link_down(int a, int b) {
    ++fired_;
    if (link_down_hook_) link_down_hook_(a, b);
  }

  // Unannotated functions schedule observable events freely.
  void submit(double t) { eng_->schedule_at(t, [] {}); }
};

}  // namespace fixture
