// Tests of the software-cache substrate: handle registry, replica states,
// capacity accounting and the read-only-first LRU eviction policy.
#include <gtest/gtest.h>

#include <map>

#include "mem/cache.hpp"
#include "mem/registry.hpp"
#include "util/rng.hpp"

namespace xkb::mem {
namespace {

double buf[4096];

TEST(Registry, InternCreatesOnce) {
  Registry reg(4);
  DataHandle* a = reg.intern(buf, 8, 8, 16, sizeof(double));
  DataHandle* b = reg.intern(buf, 8, 8, 16, sizeof(double));
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(a->dev.active(), 0u) << "replicas materialise on first touch";
  EXPECT_EQ(a->bytes(), 8 * 8 * sizeof(double));
}

TEST(Registry, HostValidAtCreation) {
  Registry reg(2);
  DataHandle* h = reg.intern(buf, 4, 4, 8, sizeof(double));
  EXPECT_EQ(h->host.state, ReplicaState::kValid);
  EXPECT_TRUE(h->valid_anywhere());
  EXPECT_EQ(h->dirty_device(), -1);
}

TEST(Registry, GeometryMismatchThrows) {
  Registry reg(2);
  reg.intern(buf, 8, 8, 16, sizeof(double));
  EXPECT_THROW(reg.intern(buf, 4, 4, 16, sizeof(double)),
               std::invalid_argument);
}

TEST(Registry, DistinctOriginsDistinctHandles) {
  Registry reg(2);
  DataHandle* a = reg.intern(buf, 4, 4, 64, sizeof(double));
  DataHandle* b = reg.intern(buf + 4, 4, 4, 64, sizeof(double));
  EXPECT_NE(a, b);
  EXPECT_EQ(a->id, 1u);  // ids are dense from 1: per-tile tables index them
  EXPECT_EQ(b->id, 2u);
  EXPECT_EQ(reg.find(buf), a);
  EXPECT_EQ(reg.find(buf + 4), b);
  EXPECT_EQ(reg.find(buf + 8), nullptr);
}

TEST(Registry, ValidAndInflightQueries) {
  Registry reg(4);
  DataHandle* h = reg.intern(buf, 4, 4, 8, sizeof(double));
  h->dev[1].state = ReplicaState::kValid;
  h->dev[3].state = ReplicaState::kInFlight;
  EXPECT_EQ(h->valid_devices(), (std::vector<int>{1}));
  EXPECT_EQ(h->inflight_devices(), (std::vector<int>{3}));
  h->dev[1].dirty = true;
  EXPECT_EQ(h->dirty_device(), 1);
}

// ReplicaMap against the std::map<int, Replica> it replaced, over seeded
// operations: materialising writes, const reads that must not insert,
// peek, and ascending iteration.  Every Replica& ever handed out must keep
// naming its entry across later inserts (LRU links and engine callbacks
// hold them).  Device ids below 1024 take the map past kLinearProbe
// entries, into the binary search.
void replica_map_matches_std_map(int devices, std::uint64_t seed) {
  ReplicaPool pool;
  ReplicaMap map(pool);
  std::map<int, Replica> oracle;
  std::map<int, Replica*> first_address;
  Rng rng(seed);
  for (int step = 0; step < 5000; ++step) {
    const int g = static_cast<int>(rng.next_below(devices));
    const auto it = oracle.find(g);
    switch (rng.next_below(4)) {
      case 0: {
        Replica& r = map[g];
        Replica& o = oracle[g];
        r.pins = o.pins = step;
        r.state = o.state = static_cast<ReplicaState>(step % 3);
        const auto [at, fresh] = first_address.emplace(g, &r);
        ASSERT_EQ(at->second, &r) << "entry of gpu" << g << " moved, step "
                                  << step;
        break;
      }
      case 1: {
        const ReplicaMap& cmap = map;
        const std::size_t before = map.active();
        const Replica& r = cmap[g];
        ASSERT_EQ(map.active(), before) << "const read inserted gpu" << g;
        ASSERT_EQ(r.pins, it == oracle.end() ? 0 : it->second.pins);
        ASSERT_EQ(r.state, it == oracle.end() ? ReplicaState::kInvalid
                                              : it->second.state);
        break;
      }
      case 2: {
        Replica* r = map.peek(g);
        ASSERT_EQ(r != nullptr, it != oracle.end()) << "peek gpu" << g;
        if (r) {
          ASSERT_EQ(r, first_address.at(g));
          ASSERT_EQ(r->pins, it->second.pins);
        }
        break;
      }
      default: {
        auto o = oracle.begin();
        for (auto& [d, r] : map) {
          ASSERT_NE(o, oracle.end()) << "extra entry gpu" << d;
          ASSERT_EQ(d, o->first) << "iteration order, step " << step;
          ASSERT_EQ(r.pins, o->second.pins);
          ASSERT_EQ(&r, first_address.at(d));
          ++o;
        }
        ASSERT_EQ(o, oracle.end()) << "missing entries, step " << step;
      }
    }
  }
  EXPECT_EQ(map.active(), oracle.size());
  EXPECT_EQ(pool.size(), oracle.size()) << "one pool entry per device";
}

TEST(ReplicaMap, MatchesStdMapUpTo8Devices) {
  replica_map_matches_std_map(8, 11);
}

TEST(ReplicaMap, MatchesStdMapUpTo1024Devices) {
  replica_map_matches_std_map(1024, 12);
}

TEST(ReplicaMap, MapsOfOnePoolShareItsBlocks) {
  ReplicaPool pool;
  ReplicaMap a(pool), b(pool);
  Replica& a3 = a[3];
  Replica& b3 = b[3];
  EXPECT_NE(&a3, &b3);
  for (int g = 0; g < 600; ++g) b[g].pins = g;  // more than two pool blocks
  EXPECT_EQ(&a[3], &a3);
  EXPECT_EQ(&b[3], &b3);
  EXPECT_EQ(a.active(), 1u);
  EXPECT_EQ(b.active(), 600u);
  EXPECT_EQ(pool.size(), 601u);
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : reg_(2) {}

  DataHandle* tile(int idx) {
    // 8x8 doubles = 512 bytes per tile.
    DataHandle* h = reg_.intern(buf + 64 * idx, 8, 8, 512, sizeof(double));
    return h;
  }

  Registry reg_;
};

TEST_F(CacheTest, ReserveAccountsBytes) {
  DeviceCache c(0, 2048);
  DataHandle* h = tile(0);
  c.reserve(h, 0.0);
  EXPECT_EQ(c.used(), 512u);
  EXPECT_TRUE(h->dev[0].resident);
  // Idempotent while resident.
  c.reserve(h, 0.0);
  EXPECT_EQ(c.used(), 512u);
  EXPECT_EQ(c.resident_count(), 1u);
}

TEST_F(CacheTest, ReleaseFrees) {
  DeviceCache c(0, 2048);
  DataHandle* h = tile(0);
  c.reserve(h, 0.0);
  c.release(h);
  EXPECT_EQ(c.used(), 0u);
  EXPECT_FALSE(h->dev[0].resident);
  EXPECT_EQ(h->dev[0].state, ReplicaState::kInvalid);
}

TEST_F(CacheTest, EvictsCleanLruFirst) {
  DeviceCache c(0, 1536);  // room for 3 tiles
  DataHandle *a = tile(0), *b = tile(1), *d = tile(2), *e = tile(3);
  for (DataHandle* h : {a, b, d}) {
    c.reserve(h, 0.0);
    h->dev[0].state = ReplicaState::kValid;
  }
  c.touch(a, 1.0);
  c.touch(b, 5.0);  // most recent
  c.touch(d, 3.0);
  auto res = c.reserve(e, 0.0);
  ASSERT_EQ(res.clean_evicted.size(), 1u);
  EXPECT_EQ(res.clean_evicted[0], a);  // LRU clean victim
  EXPECT_TRUE(res.dirty_evicted.empty());
  EXPECT_FALSE(a->dev[0].resident);
  EXPECT_EQ(c.evictions(), 1u);
}

TEST_F(CacheTest, CleanPreferredOverDirtyEvenIfNewer) {
  DeviceCache c(0, 1024);  // 2 tiles
  DataHandle *dirty = tile(0), *clean = tile(1), *incoming = tile(2);
  c.reserve(dirty, 0.0);
  dirty->dev[0].state = ReplicaState::kValid;
  c.set_dirty(dirty, true);
  c.touch(dirty, 1.0);  // older than the clean tile
  c.reserve(clean, 0.0);
  clean->dev[0].state = ReplicaState::kValid;
  c.touch(clean, 9.0);
  auto res = c.reserve(incoming, 0.0);
  ASSERT_EQ(res.clean_evicted.size(), 1u);
  EXPECT_EQ(res.clean_evicted[0], clean);  // read-only-first policy
}

TEST_F(CacheTest, DirtyEvictedWhenNoCleanLeft) {
  DeviceCache c(0, 512);  // 1 tile
  DataHandle *dirty = tile(0), *incoming = tile(1);
  c.reserve(dirty, 0.0);
  dirty->dev[0].state = ReplicaState::kValid;
  c.set_dirty(dirty, true);
  auto res = c.reserve(incoming, 0.0);
  ASSERT_EQ(res.dirty_evicted.size(), 1u);
  EXPECT_EQ(res.dirty_evicted[0], dirty);
  EXPECT_FALSE(dirty->dev[0].dirty) << "caller takes over the flush";
}

TEST_F(CacheTest, PinnedReplicasAreNotVictims) {
  DeviceCache c(0, 512);
  DataHandle *pinned = tile(0), *incoming = tile(1);
  c.reserve(pinned, 0.0);
  pinned->dev[0].state = ReplicaState::kValid;
  pinned->dev[0].pins = 1;
  EXPECT_THROW(c.reserve(incoming, 0.0), OutOfDeviceMemory);
}

TEST_F(CacheTest, InFlightReplicasAreNotVictims) {
  DeviceCache c(0, 512);
  DataHandle *flying = tile(0), *incoming = tile(1);
  c.reserve(flying, 0.0);
  flying->dev[0].state = ReplicaState::kInFlight;
  EXPECT_THROW(c.reserve(incoming, 0.0), OutOfDeviceMemory);
}

TEST_F(CacheTest, OversizedReservationThrows) {
  DeviceCache c(0, 256);  // smaller than one tile
  EXPECT_THROW(c.reserve(tile(0), 0.0), OutOfDeviceMemory);
}

TEST_F(CacheTest, FailedReserveHasNoSideEffects) {
  // Two pinned tiles and one dirty, evictable tile fill the cache.  Evicting
  // the dirty tile alone cannot make room for a double-size tile, so the
  // reservation must throw without touching it: an eviction would clear its
  // dirty bit and the caller, seeing only the exception, would never flush.
  DeviceCache c(0, 1536);
  DataHandle *p0 = tile(0), *p1 = tile(1), *dirty = tile(2);
  for (DataHandle* h : {p0, p1, dirty}) {
    c.reserve(h, 0.0);
    h->dev[0].state = ReplicaState::kValid;
  }
  p0->dev[0].pins = 1;
  p1->dev[0].pins = 1;
  c.set_dirty(dirty, true);
  DataHandle* big = reg_.intern(buf + 64 * 3, 16, 8, 512, sizeof(double));
  ASSERT_EQ(big->bytes(), 1024u);

  EXPECT_THROW(c.reserve(big, 0.0), OutOfDeviceMemory);
  EXPECT_TRUE(dirty->dev[0].resident);
  EXPECT_EQ(dirty->dev[0].state, ReplicaState::kValid);
  EXPECT_TRUE(dirty->dev[0].dirty);
  EXPECT_EQ(c.evictions(), 0u);
  EXPECT_EQ(c.used(), 1536u);

  // Once one tile is unpinned, the same reservation fits.
  p0->dev[0].pins = 0;
  auto res = c.reserve(big, 0.0);
  EXPECT_EQ(res.clean_evicted, (std::vector<DataHandle*>{p0}));
  EXPECT_EQ(res.dirty_evicted, (std::vector<DataHandle*>{dirty}));
}

TEST_F(CacheTest, ReservationCountsAsAUse) {
  // A replica last used at t = 1, released and reserved again at t = 6, is
  // stamped at its reservation: once settled, it outlives a replica used at
  // t = 4.  A reservation that throws stamps nothing.
  DeviceCache c(0, 1024);  // 2 tiles
  DataHandle *old = tile(0), *mid = tile(1), *incoming = tile(2);
  c.reserve(old, 0.0);
  old->dev[0].state = ReplicaState::kValid;
  c.touch(old, 1.0);
  c.release(old);
  c.reserve(mid, 2.0);
  mid->dev[0].state = ReplicaState::kValid;
  c.touch(mid, 4.0);
  c.reserve(old, 6.0);
  EXPECT_EQ(old->dev[0].last_use, 6.0);
  EXPECT_TRUE(old->dev[0].touch_pending);
  old->dev[0].state = ReplicaState::kValid;

  mid->dev[0].pins = 1;
  old->dev[0].pins = 1;
  EXPECT_THROW(c.reserve(incoming, 7.0), OutOfDeviceMemory);
  EXPECT_EQ(incoming->dev[0].last_use, 0.0);
  EXPECT_FALSE(incoming->dev[0].touch_pending);

  mid->dev[0].pins = 0;
  old->dev[0].pins = 0;
  auto res = c.reserve(incoming, 8.0);
  EXPECT_EQ(res.clean_evicted, (std::vector<DataHandle*>{mid}));
  c.touch(old, 9.0);
  EXPECT_FALSE(old->dev[0].touch_pending) << "the first touch clears it";
}

}  // namespace
}  // namespace xkb::mem

// Appended: the intrusive O(1) LRU must reproduce the victim order of the
// historical sort-based scan exactly (ascending last_use, ties broken by
// residency order, clean before dirty under kReadOnlyFirst), with a
// reservation counted as a use at its instant, so simulated timings are
// bit-identical across the refactor.
#include <algorithm>
#include <unordered_map>

#include "util/rng.hpp"

namespace xkb::mem {
namespace {

/// Reference model: the pre-refactor algorithm -- an insertion-ordered
/// resident vector, re-sorted per reservation, linear-scan erases -- with
/// the reservation stamped as a use.  Operates on shadow state so it shares
/// nothing with the DeviceCache under test.
class LegacySortCache {
 public:
  LegacySortCache(std::size_t capacity, EvictionPolicy policy, int ntiles)
      : cap_(capacity), policy_(policy), r_(ntiles) {}

  struct Rep {
    double last_use = 0.0;
    bool dirty = false, resident = false, inflight = false;
    int pins = 0;
  };
  struct Out {
    std::vector<int> clean, dirty;
    bool oom = false;
  };

  Rep& rep(int i) { return r_[i]; }
  std::size_t used() const { return used_; }

  Out reserve(int idx, std::size_t bytes, double now) {
    Out out;
    if (r_[idx].resident) return out;
    if (used_ + bytes > cap_) {
      std::vector<int> clean, dirty;
      for (int c : resident_) {
        const Rep& cr = r_[c];
        if (!cr.resident || cr.pins > 0 || cr.inflight) continue;
        if (policy_ == EvictionPolicy::kLru)
          clean.push_back(c);
        else
          (cr.dirty ? dirty : clean).push_back(c);
      }
      auto lru = [&](int a, int b) { return r_[a].last_use < r_[b].last_use; };
      std::stable_sort(clean.begin(), clean.end(), lru);
      std::stable_sort(dirty.begin(), dirty.end(), lru);
      std::size_t ci = 0, di = 0;
      auto evict_one = [&](int v, bool is_dirty) {
        r_[v].resident = false;
        used_ -= bytes_[v];
        resident_.erase(std::find(resident_.begin(), resident_.end(), v));
        (is_dirty ? out.dirty : out.clean).push_back(v);
      };
      while (used_ + bytes > cap_) {
        if (ci < clean.size()) {
          const int v = clean[ci++];
          const bool is_dirty = r_[v].dirty;
          if (is_dirty) r_[v].dirty = false;
          evict_one(v, is_dirty);
        } else if (di < dirty.size()) {
          const int v = dirty[di++];
          r_[v].dirty = false;
          evict_one(v, true);
        } else {
          out.oom = true;
          return out;
        }
      }
    }
    used_ += bytes;
    bytes_[idx] = bytes;
    r_[idx].resident = true;
    r_[idx].last_use = now;
    resident_.push_back(idx);
    return out;
  }

  void release(int idx) {
    if (!r_[idx].resident) return;
    r_[idx].resident = false;
    used_ -= bytes_[idx];
    resident_.erase(std::find(resident_.begin(), resident_.end(), idx));
  }

 private:
  std::size_t cap_, used_ = 0;
  EvictionPolicy policy_;
  std::vector<Rep> r_;
  std::vector<int> resident_;
  std::unordered_map<int, std::size_t> bytes_;
};

class LruEquivalenceTest : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(LruEquivalenceTest, RandomOpSequenceMatchesLegacyVictimOrder) {
  // Drive the same randomized reserve/touch/set_dirty/pin/in-flight/release
  // sequence, plus DataManager's write path (touch, then set dirty),
  // supersede and release + re-reserve, through the intrusive cache and the
  // legacy model; every reservation must evict the same victims in the same
  // order.  With 96 of 256 tiles resident, a dirty-bit flip relinks a stale
  // stamp deep inside the other list, so the two ends of a relink walk meet
  // mid-list.
  constexpr int kTiles = 256;
  constexpr std::size_t kTileBytes = 8 * 8 * sizeof(double);
  constexpr std::size_t kCapacity = 96 * kTileBytes;
  static double backing[kTiles * 64];

  const EvictionPolicy policy = GetParam();
  Registry reg(1);
  DeviceCache cache(0, kCapacity, policy);
  LegacySortCache legacy(kCapacity, policy, kTiles);
  std::vector<DataHandle*> hs;
  std::unordered_map<DataHandle*, int> idx;
  for (int i = 0; i < kTiles; ++i) {
    hs.push_back(reg.intern(backing + 64 * i, 8, 8, 512, sizeof(double)));
    idx[hs[i]] = i;
  }

  Rng rng(20210817);
  for (int step = 0; step < 20000; ++step) {
    const int i = static_cast<int>(rng.next_below(kTiles));
    Replica& r = hs[i]->dev[0];
    LegacySortCache::Rep& lr = legacy.rep(i);
    switch (rng.next_below(13)) {
      case 10:  // release, then re-reserve below: the reservation restamps
                // a clean replica that had a stale last_use
        if (lr.dirty) break;
        cache.release(hs[i]);
        legacy.release(i);
        lr.inflight = false;
        [[fallthrough]];
      case 0:
      case 1:
      case 2:
      case 3: {  // reserve (possibly evicting), stamped like a touch
        const double t = static_cast<double>(step / 3);
        LegacySortCache::Out want = legacy.reserve(i, kTileBytes, t);
        if (want.oom) {
          EXPECT_THROW(cache.reserve(hs[i], t), OutOfDeviceMemory);
          break;
        }
        DeviceCache::Reservation got = cache.reserve(hs[i], t);
        std::vector<int> got_clean, got_dirty;
        for (DataHandle* v : got.clean_evicted) got_clean.push_back(idx[v]);
        for (DataHandle* v : got.dirty_evicted) got_dirty.push_back(idx[v]);
        ASSERT_EQ(got_clean, want.clean) << "step " << step;
        ASSERT_EQ(got_dirty, want.dirty) << "step " << step;
        // Legacy victims had their shadow dirty bit cleared in reserve();
        // mirror arrival on the new side.
        r.state = ReplicaState::kValid;
        lr.inflight = false;
        break;
      }
      case 4:
      case 5:
      case 6: {  // touch; coarse timestamps force last_use ties
        const double t = static_cast<double>(step / 3);
        cache.touch(hs[i], t);
        lr.last_use = t;
        break;
      }
      case 7: {  // flip dirtiness
        const bool d = !lr.dirty;
        cache.set_dirty(hs[i], d);
        lr.dirty = d;
        break;
      }
      case 8: {  // pin / unpin / in-flight toggle
        if (rng.next_below(2) == 0) {
          const int pins = static_cast<int>(rng.next_below(2));
          r.pins = pins;
          lr.pins = pins;
        } else if (r.resident) {
          const bool fly = r.state != ReplicaState::kInFlight;
          r.state = fly ? ReplicaState::kInFlight : ReplicaState::kValid;
          lr.inflight = fly;
        }
        break;
      }
      case 9: {  // release (clean replicas only: release refuses dirty ones)
        if (!lr.dirty) {
          cache.release(hs[i]);
          legacy.release(i);
          lr.inflight = false;
        }
        break;
      }
      case 11: {  // write path: stamp first, then dirty
        const double t = static_cast<double>(step / 3);
        cache.touch(hs[i], t);
        cache.set_dirty(hs[i], true);
        lr.last_use = t;
        lr.dirty = true;
        break;
      }
      case 12: {  // a newer version supersedes this copy, dirty or not
        cache.supersede(hs[i]);
        legacy.release(i);
        lr.dirty = false;
        lr.inflight = false;
        break;
      }
    }
    ASSERT_EQ(cache.used(), legacy.used()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, LruEquivalenceTest,
                         ::testing::Values(EvictionPolicy::kReadOnlyFirst,
                                           EvictionPolicy::kLru));

TEST(IntrusiveLru, DirtyVictimDuringCleanPassUnderLru) {
  // kLru keeps one recency list; a dirty replica in the middle of it must be
  // evicted in recency position, reported as dirty_evicted (the caller owns
  // the flush) and have its dirty bit handed over.
  static double b[8 * 64];
  Registry reg(1);
  auto tile = [&](int i) {
    return reg.intern(b + 64 * i, 8, 8, 512, sizeof(double));
  };
  DeviceCache c(0, 4 * 512, EvictionPolicy::kLru);
  DataHandle *t0 = tile(0), *t1 = tile(1), *t2 = tile(2), *t3 = tile(3);
  for (DataHandle* h : {t0, t1, t2, t3}) {
    c.reserve(h, 0.0);
    h->dev[0].state = ReplicaState::kValid;
  }
  c.touch(t0, 1.0);
  c.touch(t1, 2.0);
  c.touch(t2, 3.0);
  c.touch(t3, 4.0);
  c.set_dirty(t1, true);

  // Incoming 16x12 tile (1536 bytes) forces three victims: t0, t1, t2.
  DataHandle* big = reg.intern(b + 64 * 4, 16, 12, 16, sizeof(double));
  auto res = c.reserve(big, 0.0);
  EXPECT_EQ(res.clean_evicted, (std::vector<DataHandle*>{t0, t2}));
  EXPECT_EQ(res.dirty_evicted, (std::vector<DataHandle*>{t1}));
  EXPECT_FALSE(t1->dev[0].dirty) << "caller takes over the flush";
  EXPECT_TRUE(t3->dev[0].resident) << "most recent replica survives";
}

TEST(IntrusiveLru, ReadOnlyFirstSparesDirtyWhenCleanSuffices) {
  // Same scenario under kReadOnlyFirst: the three clean replicas go first
  // and the dirty one survives, avoiding the flush entirely.
  static double b[8 * 64];
  Registry reg(1);
  auto tile = [&](int i) {
    return reg.intern(b + 64 * i, 8, 8, 512, sizeof(double));
  };
  DeviceCache c(0, 4 * 512, EvictionPolicy::kReadOnlyFirst);
  DataHandle *t0 = tile(0), *t1 = tile(1), *t2 = tile(2), *t3 = tile(3);
  for (DataHandle* h : {t0, t1, t2, t3}) {
    c.reserve(h, 0.0);
    h->dev[0].state = ReplicaState::kValid;
  }
  c.touch(t0, 1.0);
  c.touch(t1, 2.0);
  c.touch(t2, 3.0);
  c.touch(t3, 4.0);
  c.set_dirty(t1, true);

  DataHandle* big = reg.intern(b + 64 * 4, 16, 12, 16, sizeof(double));
  auto res = c.reserve(big, 0.0);
  EXPECT_EQ(res.clean_evicted, (std::vector<DataHandle*>{t0, t2, t3}));
  EXPECT_TRUE(res.dirty_evicted.empty());
  EXPECT_TRUE(t1->dev[0].resident) << "dirty replica spared by the policy";
}

TEST(IntrusiveLru, TouchReordersVictims) {
  static double b[4 * 64];
  Registry reg(1);
  auto tile = [&](int i) {
    return reg.intern(b + 64 * i, 8, 8, 512, sizeof(double));
  };
  DeviceCache c(0, 2 * 512);
  DataHandle *a = tile(0), *d = tile(1);
  for (DataHandle* h : {a, d}) {
    c.reserve(h, 0.0);
    h->dev[0].state = ReplicaState::kValid;
  }
  c.touch(a, 1.0);
  c.touch(d, 2.0);
  c.touch(a, 3.0);  // re-touch moves `a` to the MRU end
  auto res = c.reserve(tile(2), 0.0);
  ASSERT_EQ(res.clean_evicted.size(), 1u);
  EXPECT_EQ(res.clean_evicted[0], d);
}

TEST(IntrusiveLru, ReleaseRefusesDirtyReplica) {
  static double b[64];
  Registry reg(1);
  DataHandle* h = reg.intern(b, 8, 8, 512, sizeof(double));
  DeviceCache c(0, 2 * 512);
  c.reserve(h, 0.0);
  h->dev[0].state = ReplicaState::kValid;
  c.set_dirty(h, true);
#ifndef NDEBUG
  EXPECT_DEATH_IF_SUPPORTED(c.release(h), "dirty");
#endif
  c.supersede(h);  // a newer version replaces the dirty bytes
  EXPECT_FALSE(h->dev[0].dirty);
  EXPECT_FALSE(h->dev[0].resident);
  EXPECT_EQ(h->dev[0].state, ReplicaState::kInvalid);
  EXPECT_EQ(c.used(), 0u);
}

}  // namespace
}  // namespace xkb::mem

// Appended: eviction-policy ablation behaviour.
namespace xkb::mem {
namespace {

double buf2[4096];

TEST(EvictionPolicyTest, LruEvictsDirtyByRecency) {
  Registry reg(2);
  auto tile = [&](int idx) {
    return reg.intern(buf2 + 64 * idx, 8, 8, 512, sizeof(double));
  };
  DeviceCache c(0, 1024, EvictionPolicy::kLru);  // 2 tiles
  DataHandle* dirty_old = tile(0);
  DataHandle* clean_new = tile(1);
  c.reserve(dirty_old, 0.0);
  dirty_old->dev[0].state = ReplicaState::kValid;
  c.set_dirty(dirty_old, true);
  c.touch(dirty_old, 1.0);
  c.reserve(clean_new, 0.0);
  clean_new->dev[0].state = ReplicaState::kValid;
  c.touch(clean_new, 9.0);
  auto res = c.reserve(tile(2), 0.0);
  // Plain LRU picks the oldest replica even though it is dirty...
  ASSERT_EQ(res.dirty_evicted.size(), 1u);
  EXPECT_EQ(res.dirty_evicted[0], dirty_old);
  // ...where read-only-first would have dropped the clean one (covered by
  // CacheTest.CleanPreferredOverDirtyEvenIfNewer).
}

}  // namespace
}  // namespace xkb::mem
