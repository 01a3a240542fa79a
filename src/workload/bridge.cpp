#include "workload/bridge.hpp"

#include <stdexcept>

namespace xkb::wl {

Bridge::Bridge(rt::Runtime& runtime, const WorkloadGraph& graph,
               BridgeOptions opt)
    : rt_(runtime), g_(graph), opt_(std::move(opt)) {
  g_.validate();
  // One synthetic 16 MiB address slot per tile: origins are opaque intern
  // keys, but disjoint slots keep the window readable in traces and leave
  // room for the SymbolicMatrix windows below 0x600000000000.
  constexpr std::uint64_t kSlot = 0x1000000ull;
  handles_.reserve(g_.tiles.size());
  for (std::size_t i = 0; i < g_.tiles.size(); ++i) {
    const TileSpec& t = g_.tiles[i];
    void* origin = reinterpret_cast<void*>(opt_.base_address + i * kSlot);
    handles_.push_back(
        rt_.registry().intern(origin, t.m, t.n, t.m, t.wordsize));
  }
}

int Bridge::place_of(const TaskSpec& t) const {
  if (opt_.force_place) return opt_.force_place(t.place_i, t.place_j);
  if (opt_.home) return opt_.home(t.place_i, t.place_j);
  return -1;
}

// Every bridge submission funnels through here so the completion hook and
// the submission counter cannot drift apart.  The hook chains *after* any
// bookkeeping on_complete the bridge attached (e.g. the flush path's
// replica release): by the time the caller observes "task done", the
// bridge's own side effects for that task have happened.
void Bridge::submit(rt::TaskDesc d) {
  if (opt_.task_done) {
    if (d.on_complete) {
      d.on_complete = [first = std::move(d.on_complete),
                       then = opt_.task_done] {
        first();
        then();
      };
    } else {
      d.on_complete = opt_.task_done;
    }
  }
  ++submitted_;
  rt_.submit(std::move(d));
}

void Bridge::distribute() {
  // Map each input tile to the device of the first task that touches it
  // (its first consumer under owner-computes), then stage it there with a
  // forced read task, exactly like the baselines' block-cyclic
  // distribution phase.
  std::vector<int> first_place(g_.tiles.size(), -1);
  for (const TaskSpec& t : g_.tasks)
    for (const TaskAccessSpec& a : t.accesses)
      if (first_place[a.tile] < 0) first_place[a.tile] = place_of(t);
  const int ngpus = rt_.num_gpus();
  for (std::uint32_t id : g_.input_tiles()) {
    int dev = first_place[id];
    if (dev < 0) dev = static_cast<int>(id) % ngpus;
    mem::DataHandle* h = handles_[id];
    h->home_device = dev;
    rt::TaskDesc d;
    d.label = "dist";
    d.accesses.push_back({h, rt::Access::kR});
    d.forced_device = dev;
    submit(std::move(d));
  }
}

void Bridge::emit() {
  for (const TaskSpec& t : g_.tasks) {
    rt::TaskDesc d;
    d.label = t.label;
    d.flops = t.flops;
    d.min_dim = t.min_dim;
    d.eff_factor = t.eff_factor;
    d.accesses.reserve(t.accesses.size());
    for (const TaskAccessSpec& a : t.accesses)
      d.accesses.push_back({handles_[a.tile], a.mode});
    // blas::detail::set_home_and_place, keyed by the task's place coords.
    const int oa = t.out_access();
    if (oa >= 0 && opt_.home) {
      mem::DataHandle* out = d.accesses[static_cast<std::size_t>(oa)].handle;
      if (out->home_device < 0)
        out->home_device = opt_.home(t.place_i, t.place_j);
    }
    if (opt_.force_place) d.forced_device = opt_.force_place(t.place_i, t.place_j);
    std::vector<mem::DataHandle*> written;
    if (opt_.flush_outputs)
      for (const rt::TaskAccess& a : d.accesses)
        if (a.mode != rt::Access::kR) written.push_back(a.handle);
    submit(std::move(d));
    // Host round trip of every written tile (blas::detail::submit_task's
    // flush_outputs_each_task path).
    for (mem::DataHandle* h : written) {
      rt::TaskDesc f;
      f.label = "flush";
      f.accesses.push_back({h, rt::Access::kR});
      f.host_task = true;
      f.on_complete = [this, h] {
        for (auto& [g, r] : h->dev) {
          if (r.resident && r.pins == 0 && !r.dirty &&
              r.state == mem::ReplicaState::kValid) {
            rt_.platform().cache(g).release(h);
            if (!h->dev_buf.empty()) {
              h->dev_buf[g].clear();
              h->dev_buf[g].shrink_to_fit();
            }
          }
        }
      };
      submit(std::move(f));
    }
  }
}

void Bridge::coherent() {
  for (std::uint32_t id : g_.coherent) {
    ++submitted_;
    rt_.coherent_async(handles_[id], opt_.task_done);
  }
}

}  // namespace xkb::wl
