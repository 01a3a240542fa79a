// Sparse vector clocks and epochs for the happens-before race detector.
//
// Components ("lanes") are the serial execution contexts of the simulated
// platform: the host worker, one kernel FIFO per device and one virtual
// lane per device.  A clock V happens-before W iff V <= W componentwise and
// V != W; two clocks with neither ordering are concurrent, which for two
// conflicting tile accesses means a race.
//
// A clock stores only its non-zero components, as (lane, value) pairs
// sorted by lane: a task's causal past touches few of the 1 + 2 x devices
// lanes, so a dense clock would be almost all zeros at scale.  Missing
// lanes read 0, and `to_string` prints the dense form up to the highest
// non-zero lane.
//
// An Epoch is one event's (lane, clock) pair (FastTrack, Flanagan & Freund,
// PLDI 2009).  Every clock the checker builds is a join of stamped event
// clocks, and an event on lane L joins the clock of the previous event on L
// before ticking it, so "event e happens-before-or-equals clock C" is
// exactly `e.clock <= C.at(e.lane)`: an O(log n) test instead of a walk.
//
// A clock's entries live in a std::vector, so copying one into an empty
// clock allocates.  A VectorClock::Pool keeps the buffers of freed clocks:
// `recycle` empties a clock and hands its buffer to the pool, and `assign`
// copies a clock into a buffer taken from it.  A buffer enters the pool
// only from a clock that held it, and `assign` makes a new one only when
// the pool is empty: when every recycled clock takes its buffer through
// `assign`, the pool never holds more buffers than the peak number of
// those clocks live at once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xkb::check {

class VectorClock {
  struct Entry {
    std::uint32_t lane;
    std::uint64_t value;  ///< never 0
  };

 public:
  /// Spare entry buffers, empty but with their capacity kept.
  class Pool {
   public:
    std::size_t size() const { return spare_.size(); }

   private:
    friend class VectorClock;
    std::vector<std::vector<Entry>> spare_;
  };

  VectorClock() = default;

  std::uint64_t at(std::size_t lane) const {
    const auto it = find(e_, lane);
    return it != e_.end() && it->lane == lane ? it->value : 0;
  }

  /// Advance this clock's own component (a new event on `lane`).
  void tick(std::size_t lane) {
    const auto it = find(e_, lane);
    if (it != e_.end() && it->lane == lane)
      ++it->value;
    else
      e_.insert(it, {static_cast<std::uint32_t>(lane), 1});
  }

  /// Componentwise maximum (import every happens-before edge of `o`).
  void join(const VectorClock& o) {
    // Raise the shared lanes in place and count the ones `o` adds; when
    // there are some, grow once and merge from the back.
    std::size_t added = 0;
    auto it = e_.begin();
    for (const Entry& x : o.e_) {
      while (it != e_.end() && it->lane < x.lane) ++it;
      if (it != e_.end() && it->lane == x.lane)
        it->value = std::max(it->value, x.value);
      else
        ++added;
    }
    if (added == 0) return;
    std::size_t i = e_.size(), j = o.e_.size(), k = i + added;
    e_.resize(k);
    while (j > 0) {
      const Entry& x = o.e_[j - 1];
      if (i > 0 && e_[i - 1].lane >= x.lane) {
        if (e_[i - 1].lane == x.lane) --j;
        e_[--k] = e_[--i];
      } else {
        e_[--k] = x;
        --j;
      }
    }
  }

  /// Become a copy of `o`, in a buffer taken from `pool` when this clock
  /// holds none.
  void assign(const VectorClock& o, Pool& pool) {
    if (e_.capacity() == 0 && !pool.spare_.empty()) {
      e_.swap(pool.spare_.back());
      pool.spare_.pop_back();
    }
    e_.assign(o.e_.begin(), o.e_.end());
  }

  /// Empty this clock and hand its buffer, if any, to `pool`.
  void recycle(Pool& pool) {
    if (e_.capacity() == 0) return;
    e_.clear();
    pool.spare_.push_back(std::move(e_));
    e_ = {};
  }

  /// join(o), then recycle `o`; takes over `o`'s buffer when this is empty.
  void absorb(VectorClock& o, Pool& pool) {
    if (e_.empty())
      e_.swap(o.e_);
    else
      join(o);
    o.recycle(pool);
  }

  /// true iff this clock happens-before-or-equals `o` (componentwise <=).
  bool leq(const VectorClock& o) const {
    auto it = o.e_.begin();
    for (const Entry& x : e_) {
      while (it != o.e_.end() && it->lane < x.lane) ++it;
      if (it == o.e_.end() || it->lane != x.lane || it->value < x.value)
        return false;
    }
    return true;
  }

  /// Calls `f(lane, value)` for every non-zero component, ascending lanes.
  template <class F>
  void for_each(F&& f) const {
    for (const Entry& x : e_) f(static_cast<std::size_t>(x.lane), x.value);
  }

  /// Become the clock whose component l is `dense[l]`, in this clock's
  /// buffer.
  void assign_dense(const std::vector<std::uint64_t>& dense) {
    e_.clear();
    for (std::size_t l = 0; l < dense.size(); ++l)
      if (dense[l] != 0)
        e_.push_back({static_cast<std::uint32_t>(l), dense[l]});
  }

  /// Dense text, "[c0,c1,...]" up to the highest non-zero lane.
  std::string to_string() const {
    std::string s = "[";
    std::size_t lane = 0;
    for (const Entry& x : e_) {
      for (; lane < x.lane; ++lane) s += lane ? ",0" : "0";
      s += (lane ? "," : "") + std::to_string(x.value);
      ++lane;
    }
    return s + "]";
  }

 private:
  /// First entry of `e` whose lane is not below `lane`.
  template <class Entries>
  static auto find(Entries& e, std::size_t lane) -> decltype(e.begin()) {
    return std::lower_bound(
        e.begin(), e.end(), lane,
        [](const Entry& x, std::size_t l) { return x.lane < l; });
  }

  std::vector<Entry> e_;  ///< non-zero components, ascending lanes
};

/// One stamped event: the lane it ran on and that lane's clock after it.
struct Epoch {
  std::uint32_t lane = 0;
  std::uint64_t clock = 0;  ///< 0: no event yet

  /// true iff this event happens-before-or-equals `c` (see the file header).
  bool leq(const VectorClock& c) const { return clock <= c.at(lane); }
};

}  // namespace xkb::check
