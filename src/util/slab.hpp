// Block storage for records whose addresses must stay stable.
//
// Slab<T, N> hands out T records from blocks of N slots, allocating one
// block at a time when the previous one fills up, so an empty slab owns no
// memory.  A record is never moved: engine callbacks, intrusive lists and
// the cache's LRU links hold plain pointers to it.  Records are created in
// order and destroyed together, in place, when the slab dies; indexing
// and for_each follow creation order.
//
// LinkPool<T, N> builds insertion-ordered singly-linked lists (LinkList)
// out of a slab of Link nodes.  A released list goes onto a free list in
// O(1) and its nodes serve the next appends, so a pool's memory follows
// the number of live links, not the number ever made.
//
// ArrayPool<T, N> hands out arrays of 1, 2, 4, ... records to tables that
// grow by doubling.  An array released on growth goes onto the free list
// of its size and serves the next table of that size, so a table growing
// 1 -> 2 -> 4 passes its smaller arrays on instead of freeing them, and no
// table has to reserve room it may never use.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace xkb::util {

template <class T, std::size_t N>
class Slab {
  static_assert(N > 0, "a slab block holds at least one record");

 public:
  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;
  ~Slab() {
    for_each([](T& x) { x.~T(); });
  }

  /// Construct the next record in place.
  template <class... Args>
  T* emplace(Args&&... args) {
    const std::size_t slot = size_ % N;
    if (slot == 0 && size_ / N == blocks_.size())
      blocks_.push_back(std::unique_ptr<Block>(new Block));  // not zeroed
    T* p = ::new (blocks_[size_ / N]->raw(slot))
        T(std::forward<Args>(args)...);
    ++size_;
    return p;
  }

  std::size_t size() const { return size_; }

  /// The i-th record made (i < size()).
  T& operator[](std::size_t i) {
    return *std::launder(static_cast<T*>(blocks_[i / N]->raw(i % N)));
  }

  /// Visit every record in creation order.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < size_; ++i) f((*this)[i]);
  }

 private:
  struct Block {
    alignas(T) std::byte bytes[N * sizeof(T)];
    void* raw(std::size_t i) { return bytes + i * sizeof(T); }
  };
  std::vector<std::unique_ptr<Block>> blocks_;
  std::size_t size_ = 0;
};

/// One node of a LinkList; its storage belongs to a LinkPool.
template <class T>
struct Link {
  T value{};
  Link* next = nullptr;
};

/// Head and tail of an insertion-ordered singly-linked list.
template <class T>
struct LinkList {
  Link<T>* head = nullptr;
  Link<T>* tail = nullptr;
  bool empty() const { return head == nullptr; }
};

template <class T, std::size_t N>
class LinkPool {
 public:
  /// Append `v` at the tail of `list`, reusing a released node if any.
  void append(LinkList<T>& list, T v) {
    Link<T>* n = free_;
    if (n)
      free_ = n->next;
    else
      n = slab_.emplace();
    n->value = std::move(v);
    n->next = nullptr;
    if (list.tail)
      list.tail->next = n;
    else
      list.head = n;
    list.tail = n;
  }

  /// Empty `list`, handing all of its nodes to the free list at once.
  void release(LinkList<T>& list) {
    if (list.empty()) return;
    list.tail->next = free_;
    free_ = list.head;
    list = {};
  }

  /// Unlink the nodes of `list` whose value satisfies `pred`, keeping the
  /// others in order, and hand the unlinked ones to the free list.
  template <class Pred>
  void erase_if(LinkList<T>& list, Pred pred) {
    Link<T>* prev = nullptr;
    for (Link<T>* n = list.head; n;) {
      Link<T>* const next = n->next;
      if (pred(n->value)) {
        (prev ? prev->next : list.head) = next;
        if (list.tail == n) list.tail = prev;
        n->next = free_;
        free_ = n;
      } else {
        prev = n;
      }
      n = next;
    }
  }

 private:
  Slab<Link<T>, N> slab_;
  Link<T>* free_ = nullptr;
};

template <class T, std::size_t N>
class ArrayPool {
 public:
  /// An array of 2^cls records, each in its default state.
  T* acquire(std::size_t cls) {
    if (cls >= classes_.size()) classes_.resize(cls + 1);
    SizeClass& c = classes_[cls];
    if (!c.free.empty()) {
      T* p = c.free.back();
      c.free.pop_back();
      return p;
    }
    const std::size_t len = std::size_t{1} << cls;
    if (c.left == 0) {
      // A block holds N records, or one array when an array is larger.
      c.left = len < N ? N / len : 1;
      blocks_.push_back(std::make_unique<T[]>(c.left * len));
      c.next = blocks_.back().get();
    }
    T* p = c.next;
    c.next += len;
    --c.left;
    return p;
  }

  /// Hand back an array that acquire(cls) returned; its records must be
  /// back in their default state.
  void release(T* p, std::size_t cls) { classes_[cls].free.push_back(p); }

 private:
  struct SizeClass {
    std::vector<T*> free;
    T* next = nullptr;     ///< next uncarved array of the newest block
    std::size_t left = 0;  ///< uncarved arrays from `next` on
  };
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<SizeClass> classes_;
};

}  // namespace xkb::util
