// Microbenchmark of the device-cache reservation hot path under memory
// pressure: every reserve() must evict one victim.  Compares the intrusive
// per-class LRU cache against a reference implementation of the historical
// algorithm (re-sort all residents per reservation + linear-scan erase) at
// several resident-set sizes, reporting ns per reserve/evict cycle.
//
// The point: the legacy cost grows with the resident-set size (the per-OOM
// sort is O(R log R)), the intrusive cache is flat (O(victims) per
// reservation), which is what BLASX's two-level LRU (Wang et al.) and the
// XKaapi affinity work (Bleuse et al.) assume of cache bookkeeping.
//
// A second table times the write-back paths over the same sizes: (A) a
// kernel output reserved and written (touch, then set_dirty) while every
// resident is dirty, and (B) a mid-age replica released and re-reserved.
// The reservation counts as a use, so B links at the MRU end in O(1)
// instead of walking to its stale stamp in the middle of the list.
//
//   micro_cache [cycles per size, default 100000]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "mem/cache.hpp"
#include "mem/registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace xkb;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kTileBytes = 8 * 8 * sizeof(double);

/// The pre-refactor eviction algorithm, kept here as the baseline: an
/// insertion-ordered resident vector re-sorted on every reservation that
/// needs space, with std::find erases.
class LegacySortCache {
 public:
  LegacySortCache(int device, std::size_t capacity)
      : device_(device), capacity_(capacity) {}

  void reserve(mem::DataHandle* h, double now) {
    mem::Replica& r = h->dev[device_];
    if (r.resident) return;
    const std::size_t need = h->bytes();
    if (used_ + need > capacity_) {
      std::vector<mem::DataHandle*> clean, dirty;
      for (mem::DataHandle* c : resident_) {
        const mem::Replica& cr = c->dev[device_];
        if (!cr.resident || cr.pins > 0 ||
            cr.state == mem::ReplicaState::kInFlight)
          continue;
        (cr.dirty ? dirty : clean).push_back(c);
      }
      auto lru = [&](mem::DataHandle* a, mem::DataHandle* b) {
        return a->dev[device_].last_use < b->dev[device_].last_use;
      };
      std::stable_sort(clean.begin(), clean.end(), lru);
      std::stable_sort(dirty.begin(), dirty.end(), lru);
      std::size_t ci = 0, di = 0;
      while (used_ + need > capacity_) {
        mem::DataHandle* v = nullptr;
        if (ci < clean.size())
          v = clean[ci++];
        else if (di < dirty.size())
          v = dirty[di++];
        else
          throw mem::OutOfDeviceMemory(device_);
        mem::Replica& vr = v->dev[device_];
        vr.dirty = false;
        vr.state = mem::ReplicaState::kInvalid;
        vr.resident = false;
        used_ -= v->bytes();
        resident_.erase(std::find(resident_.begin(), resident_.end(), v));
      }
    }
    used_ += need;
    r.resident = true;
    r.last_use = now;
    resident_.push_back(h);
  }

  void touch(mem::DataHandle* h, double now) { h->dev[device_].last_use = now; }

 private:
  int device_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::vector<mem::DataHandle*> resident_;
};

/// One reserve/evict cycle per iteration: the working set is one tile larger
/// than the cache, so every reservation of a non-resident tile evicts the
/// LRU victim.  Random touches keep the recency order churning.
template <typename Cache>
double run_cycles(Cache& cache, std::vector<mem::DataHandle*>& tiles,
                  int cycles) {
  Rng rng(42);
  // Warm: fill the cache.
  for (std::size_t i = 0; i + 1 < tiles.size(); ++i) {
    cache.reserve(tiles[i], static_cast<double>(i));
    tiles[i]->dev[0].state = mem::ReplicaState::kValid;
    cache.touch(tiles[i], static_cast<double>(i));
  }
  double now = static_cast<double>(tiles.size());
  std::size_t next = tiles.size() - 1;
  const auto t0 = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    mem::DataHandle* h = tiles[next % tiles.size()];
    cache.reserve(h, now);  // evicts exactly the current LRU victim
    h->dev[0].state = mem::ReplicaState::kValid;
    cache.touch(h, now++);
    // Touch a random resident to churn the order.
    cache.touch(tiles[rng.next_below(tiles.size())], now++);
    ++next;
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / cycles;
}

/// Cycle A: every resident is dirty and the working set is one tile larger
/// than the cache, so each reservation evicts (and hands over the flush of)
/// the LRU dirty victim before the new output is stamped and dirtied, in
/// DataManager::mark_written's order.
double run_write_cycles(mem::DeviceCache& cache,
                        std::vector<mem::DataHandle*>& tiles, int cycles) {
  double now = 0.0;
  for (std::size_t i = 0; i + 1 < tiles.size(); ++i) {
    cache.reserve(tiles[i], now);
    tiles[i]->dev[0].state = mem::ReplicaState::kValid;
    cache.touch(tiles[i], now++);
    cache.set_dirty(tiles[i], true);
  }
  std::size_t next = tiles.size() - 1;
  const auto t0 = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    mem::DataHandle* h = tiles[next++ % tiles.size()];
    cache.reserve(h, now);
    h->dev[0].state = mem::ReplicaState::kValid;
    cache.touch(h, now++);
    cache.set_dirty(h, true);
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / cycles;
}

/// Cycle B: R clean residents with distinct stamps.  Each cycle releases the
/// replica in the middle of the recency order and re-reserves it, which
/// stamps it and links it at the MRU end, then touches it on arrival; the
/// next mid-age replica is then the one after it.
double run_rereserve_cycles(mem::DeviceCache& cache,
                            std::vector<mem::DataHandle*>& tiles, int cycles) {
  const std::size_t n = tiles.size();
  double now = 0.0;
  for (mem::DataHandle* h : tiles) {
    cache.reserve(h, now);
    h->dev[0].state = mem::ReplicaState::kValid;
    cache.touch(h, now++);
  }
  const auto t0 = Clock::now();
  for (int c = 0; c < cycles; ++c) {
    const std::size_t mid = n / 2 + static_cast<std::size_t>(c) % (n - n / 2);
    mem::DataHandle* h = tiles[mid];
    cache.release(h);
    cache.reserve(h, now);
    h->dev[0].state = mem::ReplicaState::kValid;
    cache.touch(h, now++);
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / cycles;
}

}  // namespace

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 100000;
  if (cycles <= 0) {
    std::fprintf(stderr, "usage: micro_cache [cycles > 0]\n");
    return 2;
  }
  std::printf(
      "Reserve-under-pressure cost vs resident-set size (%d cycles/point, "
      "one eviction per reserve)\n\n", cycles);
  std::printf("%12s %22s %22s %10s\n", "residents", "legacy sort-scan (ns)",
              "intrusive LRU (ns)", "speedup");
  for (std::size_t residents : {256u, 1024u, 4096u, 16384u}) {
    const std::size_t ntiles = residents + 1;
    std::vector<double> backing(ntiles);  // origin keys only; no payload

    mem::Registry reg_new(1), reg_old(1);
    std::vector<mem::DataHandle*> tiles_new, tiles_old;
    for (std::size_t i = 0; i < ntiles; ++i) {
      tiles_new.push_back(
          reg_new.intern(&backing[i], 8, 8, 512, sizeof(double)));
      tiles_old.push_back(
          reg_old.intern(&backing[i], 8, 8, 512, sizeof(double)));
    }

    mem::DeviceCache cache(0, residents * kTileBytes);
    LegacySortCache legacy(0, residents * kTileBytes);
    const double ns_new = run_cycles(cache, tiles_new, cycles);
    const double ns_old = run_cycles(legacy, tiles_old, cycles);
    std::printf("%12zu %22.1f %22.1f %9.1fx\n", residents, ns_old, ns_new,
                ns_old / ns_new);
  }
  std::printf(
      "\nFlat right-hand column = reservation cost independent of the "
      "resident-set size.\n");

  std::printf(
      "\nWrite-back cost vs resident-set size (%d cycles/point, ns per "
      "cycle)\n\n", cycles);
  std::printf("%12s %26s %30s\n", "residents", "A: reserve + write (ns)",
              "B: re-reserve mid-age (ns)");
  for (std::size_t residents : {256u, 1024u, 4096u, 16384u}) {
    std::vector<double> backing(residents + 1);
    mem::Registry reg_a(1), reg_b(1);
    std::vector<mem::DataHandle*> tiles_a, tiles_b;
    for (std::size_t i = 0; i <= residents; ++i)
      tiles_a.push_back(reg_a.intern(&backing[i], 8, 8, 512, sizeof(double)));
    for (std::size_t i = 0; i < residents; ++i)
      tiles_b.push_back(reg_b.intern(&backing[i], 8, 8, 512, sizeof(double)));

    mem::DeviceCache cache_a(0, residents * kTileBytes);
    mem::DeviceCache cache_b(0, residents * kTileBytes);
    const double ns_a = run_write_cycles(cache_a, tiles_a, cycles);
    const double ns_b = run_rereserve_cycles(cache_b, tiles_b, cycles);
    std::printf("%12zu %26.1f %30.1f\n", residents, ns_a, ns_b);
  }
  std::printf(
      "\nBoth stay flat: a write is stamped before it is dirtied, and a "
      "reservation is stamped as a use.\n");
  return 0;
}
