// Task placement policies.
//
// The paper's point is that its heuristics are *scheduler-agnostic*: they sit
// between the scheduler's placement decision and the transfer engine.  We
// therefore keep placement behind one interface and provide the policies the
// evaluated libraries use:
//
//   * OwnerComputesScheduler -- XKaapi/XKBlas: map a task to the device that
//     owns its output tile (dirty replica, else the tile's home from the 2D
//     block-cyclic default mapping), with work stealing when a device runs
//     dry.  The stealing is locality-blind, which is how the paper explains
//     the SYR2K/SYRK work imbalance it observes on XKBlas.
//   * DmdasScheduler -- the StarPU dmdas policy used for Chameleon: place
//     each ready task where its estimated completion time (device ETA +
//     estimated transfer cost + kernel time) is minimal.  No stealing.
//   * RoundRobinScheduler -- static interleaving (cuBLAS-XT-style block
//     distribution when the baseline does not force placement itself).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/task.hpp"

namespace xkb::rt {

class Runtime;

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Choose the device for a task whose dependencies are satisfied.
  virtual int place(const Task& t, Runtime& rt) = 0;
  virtual bool allows_stealing() const { return false; }
  virtual const char* name() const = 0;
};

class OwnerComputesScheduler : public Scheduler {
 public:
  explicit OwnerComputesScheduler(bool stealing = true)
      : stealing_(stealing) {}
  int place(const Task& t, Runtime& rt) override;
  bool allows_stealing() const override { return stealing_; }
  const char* name() const override { return "owner-computes+ws"; }

 private:
  bool stealing_;
  std::uint64_t rr_ = 0;  // fallback for tasks with no located output
};

class DmdasScheduler : public Scheduler {
 public:
  int place(const Task& t, Runtime& rt) override;
  const char* name() const override { return "dmdas"; }

  /// Estimated ready time per device, as booked by the placements so far.
  const std::vector<double>& eta() const { return eta_; }

 private:
  std::vector<double> eta_;  // estimated ready time per device
  // place() scratch, reused: per-device transfer estimate, and one read
  // operand's valid sources and (device, ETA) receptions.
  std::vector<double> xfer_;
  std::vector<int> valid_;
  std::vector<std::pair<int, double>> flying_;
};

class RoundRobinScheduler : public Scheduler {
 public:
  int place(const Task& t, Runtime& rt) override;
  const char* name() const override { return "round-robin"; }

 private:
  std::uint64_t next_ = 0;
};

}  // namespace xkb::rt
