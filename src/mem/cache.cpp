#include "mem/cache.hpp"

#include <cassert>

#include "util/annotations.hpp"
#include "util/selfprof.hpp"

namespace xkb::mem {

namespace {

/// Victim-order key: ascending LRU stamp, ties broken by residency order
/// (the order reserve() was called in), exactly like the historical
/// stable_sort over the insertion-ordered resident vector.
inline bool key_less(const Replica& a, const Replica& b) {
  if (a.last_use != b.last_use) return a.last_use < b.last_use;
  return a.lru_seq < b.lru_seq;
}

}  // namespace

XKB_HOT void DeviceCache::link_sorted(Replica& r) {
  const int cls = class_of(r);
  LruList& l = lists_[cls];
  // Find `after`: the rightmost entry with a key below r's (keys are
  // distinct, so the place is unique).  Step inward from both ends in
  // lockstep and stop on whichever side passes r's key first.  While `after`
  // still sorts above r, some entry does, so `before` cannot run off the end.
  Replica* after = l.tail;
  Replica* before = l.head;
  while (after && key_less(r, *after)) {
    if (key_less(r, *before)) {
      after = before->lru_prev;
      break;
    }
    after = after->lru_prev;
    before = before->lru_next;
  }
  r.lru_class = static_cast<std::int8_t>(cls);
  r.lru_prev = after;
  if (after) {
    r.lru_next = after->lru_next;
    after->lru_next = &r;
  } else {
    r.lru_next = l.head;
    l.head = &r;
  }
  if (r.lru_next)
    r.lru_next->lru_prev = &r;
  else
    l.tail = &r;
}

XKB_HOT void DeviceCache::unlink(Replica& r) {
  assert(r.lru_class >= 0 && "unlinking a replica that is not listed");
  LruList& l = lists_[r.lru_class];
  if (r.lru_prev)
    r.lru_prev->lru_next = r.lru_next;
  else
    l.head = r.lru_next;
  if (r.lru_next)
    r.lru_next->lru_prev = r.lru_prev;
  else
    l.tail = r.lru_prev;
  r.lru_prev = r.lru_next = nullptr;
  r.lru_class = -1;
}

XKB_HOT void DeviceCache::drop(Replica& r, std::size_t bytes) {
  r.resident = false;
  r.state = ReplicaState::kInvalid;
  used_ -= bytes;
  --resident_count_;
  unlink(r);
}

XKB_HOT void DeviceCache::touch(DataHandle* h, sim::Time now) {
  prof::ScopedTimer pt(prof::Phase::kCacheTouch);
  Replica& r = h->dev[device_];
  r.last_use = now;
  r.touch_pending = false;
  if (r.lru_class < 0) return;  // not resident: stamp only
  unlink(r);
  link_sorted(r);
}

XKB_HOT void DeviceCache::set_dirty(DataHandle* h, bool dirty) {
  Replica& r = h->dev[device_];
  if (r.dirty == dirty) return;
  if (r.lru_class < 0) {  // not resident: the bit alone suffices
    r.dirty = dirty;
    return;
  }
  unlink(r);
  r.dirty = dirty;
  link_sorted(r);
}

XKB_HOT DeviceCache::Reservation DeviceCache::reserve(DataHandle* h,
                                                      sim::Time now) {
  prof::ScopedTimer pt(prof::Phase::kCacheReserve);
  Reservation out;
  Replica& r = h->dev[device_];
  if (r.resident) return out;  // already accounted

  const std::size_t need = h->bytes();
  if (used_ + need > capacity_) {
    // Pick the victims before changing anything, so a reservation that
    // cannot fit leaves every replica as it was.  Walk each class list from
    // its LRU end, skipping residents that are pinned or in flight.
    // kReadOnlyFirst drains the clean list before the dirty one; under kLru
    // every resident lives in the "clean" list and dirtiness is checked per
    // victim (a dirty victim's flush is still the caller's job).
    victims_.clear();
    std::size_t freed = 0;
    for (int cls : {kClean, kDirty}) {
      for (Replica* v = lists_[cls].head;
           v && used_ - freed + need > capacity_; v = v->lru_next) {
        assert(v->lru_class == class_of(*v) &&
               "replica on the wrong victim list: set_dirty bypassed");
        if (v->pins == 0 && v->state != ReplicaState::kInFlight) {
          victims_.push_back(v);
          freed += v->lru_owner->bytes();
        }
      }
    }
    if (used_ - freed + need > capacity_) throw OutOfDeviceMemory(device_);

    for (Replica* v : victims_) {
      DataHandle* vh = v->lru_owner;
      const bool is_dirty = v->dirty;
      v->dirty = false;  // a dirty victim is flushed to host by the caller
      drop(*v, vh->bytes());
      ++evictions_;
      // Dirty functional buffers are kept alive by the caller until the
      // flush copies them out; clean buffers can be dropped now.
      if (!is_dirty && !vh->dev_buf.empty()) {
        vh->dev_buf[device_].clear();
        vh->dev_buf[device_].shrink_to_fit();
      }
      (is_dirty ? out.dirty_evicted : out.clean_evicted).push_back(vh);
    }
  }

  used_ += need;
  r.resident = true;
  ++resident_count_;
  r.lru_owner = h;
  r.lru_seq = next_seq_++;
  // Stamped now with the newest sequence number, the replica sorts after
  // every resident: link_sorted stops at the tail.
  r.last_use = now;
  r.touch_pending = true;
  link_sorted(r);
  return out;
}

XKB_HOT void DeviceCache::release(DataHandle* h) {
  Replica& r = h->dev[device_];
  if (!r.resident) return;
  assert(!r.dirty &&
         "releasing a dirty replica discards its bytes; flush it to the host "
         "(or supersede() it when a newer version replaces it) first");
  drop(r, h->bytes());
}

XKB_HOT void DeviceCache::supersede(DataHandle* h) {
  // Clearing the bit without a relink is safe: unlink() goes by lru_class.
  h->dev[device_].dirty = false;
  release(h);
}

}  // namespace xkb::mem
