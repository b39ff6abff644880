// The engine's pending-event store: an exact bucketed event queue plus a
// slot pool.
//
// Kept apart from ExecutionContext so the ordering that defines delivery
// semantics lives in one place: events are consumed in
// (delivery key, send sequence) order, which makes delivery a total order
// for any scheduler. Message payloads live in a flat slot pool with a free
// list (EventHeap); the ordering structure (EventQueue) moves 24-byte index
// entries, never the Message-carrying events themselves. Storage is
// retained across clear() calls so a reused context performs no
// steady-state allocation (tests/test_zero_alloc.cpp).
//
// EventQueue is a calendar queue (Brown, "Calendar queues", CACM 1988) with
// one year of kBuckets one-key days plus an exact overflow heap:
//
//  * The ring covers keys in [base, base + kBuckets), where base is the
//    last popped key (0 after clear()). Bucket `key & (kBuckets - 1)` is a
//    FIFO. A window one bucket wide per key means every entry in a bucket
//    has the same key, so a bucket's FIFO order is its push order, and a
//    bucket stores no key: it is base plus the bucket's distance from
//    base. Buckets are singly linked lists through one node array with a
//    free list, so a queue's hot state is a few cache lines however many
//    buckets are in use (the seed-batch engine keeps one queue per key
//    class).
//  * Callers push in increasing seq (the engine's global send counter), so
//    push order is seq order and each bucket front is that key's smallest
//    seq. A 64-bit occupancy mask, rotated to start at base, finds the
//    smallest non-empty bucket with one ctz.
//  * Every key outside the window — below base (LIFO's -seq) or at
//    base + kBuckets and beyond (FIFO's far seqs, large fault extra_delay,
//    max_delay > 63) — goes to a binary min-heap over (key, seq).
//  * pop() returns the smaller of the ring front and the heap top under the
//    same (key, seq) order, so the queue is exact for any key sequence: the
//    window only decides which structure holds an entry, never the order.
//    base only grows (pop sets it to max(base, key)), and the popped key is
//    the global minimum, so ring entries stay inside the window.
//  * An entry pushed into an empty queue waits in a one-entry register
//    until a second push files it. A queue that never holds two entries
//    (one message in flight, as in every agreeing key class of a
//    seed-batch pass over a sequential scheme) touches neither ring nor
//    heap.
//
// kBuckets is a constant, not an option: 64 covers kAsyncRandom's default
// max_delay 16 and kAsyncAdversarial's now+1+2·max_delay, so the
// schedulers' keys land in the ring; anything wider stays exact through
// the heap. tests/test_event_queue.cpp checks the order against a
// std::set reference over every key pattern above.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/port_graph.h"
#include "sim/message.h"

namespace oraclesize {

/// One in-flight message's payload, parked in the pool until delivery.
struct EngineEvent {
  NodeId to = kNoNode;
  Port at_port = kNoPort;
  Message msg;
  bool sender_informed = false;
};

/// Exact (key, seq) priority queue of index entries. Pushes must arrive in
/// increasing seq. Not thread-safe.
class EventQueue {
 public:
  /// Entries carry the ordering fields inline so ordering never
  /// dereferences the pool: `key` is the delivery priority (lower first)
  /// and `seq` the global send number — the tie-breaker that makes
  /// delivery order a total order. `slot` indexes the pool.
  struct Entry {
    std::int64_t key;
    std::uint64_t seq;
    std::size_t slot;
  };

  /// Drops all pending entries and re-anchors the window at key 0; node
  /// and heap capacity are retained for reuse.
  void clear() noexcept {
    size_ = 0;
    solo_live_ = false;
    base_ = 0;
    occupied_ = 0;
    free_ = kNil;
    nodes_.clear();
    heap_.clear();
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push(Entry e) {
    if (size_++ == 0) {
      solo_ = e;
      solo_live_ = true;
      return;
    }
    if (solo_live_) {
      solo_live_ = false;
      place(solo_);
    }
    place(e);
  }

  /// Removes and returns the smallest entry. Precondition: !empty().
  Entry pop() {
    --size_;
    Entry e;
    if (solo_live_) {
      solo_live_ = false;
      e = solo_;
    } else if (occupied_ == 0) {
      e = heap_pop();
    } else {
      // The first occupied bucket at or after base's holds the ring's
      // smallest key, base + distance.
      const int rot = static_cast<int>(bucket_of(base_));
      const int distance = std::countr_zero(std::rotr(occupied_, rot));
      const std::size_t b = bucket_of(base_ + distance);
      Bucket& bucket = ring_[b];
      const std::uint32_t i = bucket.head;
      Node& node = nodes_[i];
      e = Entry{base_ + distance, node.seq, node.slot};
      if (!heap_.empty() && entry_before(heap_.front(), e)) {
        e = heap_pop();
      } else {
        if (i == bucket.tail) {
          occupied_ &= ~(std::uint64_t{1} << b);
        } else {
          bucket.head = node.next;
        }
        node.next = free_;
        free_ = i;
      }
    }
    if (e.key > base_) base_ = e.key;
    return e;
  }

 private:
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  static bool entry_before(const Entry& a, const Entry& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  /// A ring entry: its key is implied by the bucket it is linked into.
  struct Node {
    std::uint64_t seq;
    std::size_t slot;
    std::uint32_t next;  ///< next node in the bucket or free list, or kNil
  };

  /// First and last node of a bucket's FIFO; meaningful only while the
  /// bucket's occupancy bit is set.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  static std::size_t bucket_of(std::int64_t key) noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(key) &
                                    (kBuckets - 1));
  }

  /// Files an entry into the ring or the overflow heap.
  void place(Entry e) {
    const std::uint64_t offset = static_cast<std::uint64_t>(e.key) -
                                 static_cast<std::uint64_t>(base_);
    if (e.key >= base_ && offset < kBuckets) {
      std::uint32_t i = free_;
      if (i != kNil) {
        free_ = nodes_[i].next;
        nodes_[i] = Node{e.seq, e.slot, kNil};
      } else {
        i = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{e.seq, e.slot, kNil});
      }
      const std::size_t b = bucket_of(e.key);
      const std::uint64_t bit = std::uint64_t{1} << b;
      if ((occupied_ & bit) != 0) {
        nodes_[ring_[b].tail].next = i;
        ring_[b].tail = i;
      } else {
        ring_[b] = Bucket{i, i};
        occupied_ |= bit;
      }
    } else {
      heap_push(e);
    }
  }

  void heap_push(Entry e) {
    // Hole insertion: bubble the hole up, write the entry once at the end.
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!entry_before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Entry heap_pop() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t size = heap_.size();
    if (size > 0) {
      // Sift the hole down from the root, then drop `last` into it.
      std::size_t i = 0;
      while (true) {
        const std::size_t left = 2 * i + 1;
        if (left >= size) break;
        const std::size_t right = left + 1;
        std::size_t best = left;
        if (right < size && entry_before(heap_[right], heap_[left])) {
          best = right;
        }
        if (!entry_before(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return top;
  }

  // Hot fields first: a queue that never holds two entries at once touches
  // only these.
  std::size_t size_ = 0;
  Entry solo_{};             ///< the entry pushed into an empty queue...
  bool solo_live_ = false;   ///< ...held here until a second push files it
  std::int64_t base_ = 0;    ///< window start: max key popped so far
  std::uint64_t occupied_ = 0;  ///< bit b set iff ring_[b] is non-empty
  std::uint32_t free_ = kNil;   ///< head of the recycled-node list
  std::vector<Node> nodes_;     ///< ring entries, linked per bucket
  std::vector<Entry> heap_;     ///< overflow: binary min-heap over (key, seq)
  std::array<Bucket, kBuckets> ring_{};
};

/// Slot pool + EventQueue. Not thread-safe.
class EventHeap {
 public:
  using Entry = EventQueue::Entry;

  /// Drops all pending entries and resets the high-water mark; slot storage
  /// and queue capacity are retained for reuse.
  void clear() noexcept {
    pool_.clear();
    queue_.clear();
    free_slots_.clear();
    peak_ = 0;
  }

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t size() const noexcept { return queue_.size(); }

  /// Queue high-water mark since the last clear() (records the queue size
  /// after every push — the queue_depth_peak metric).
  std::size_t peak() const noexcept { return peak_; }

  /// Claims a pool slot (recycled or fresh) for the caller to fill via
  /// slot().
  std::size_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    pool_.emplace_back();
    return pool_.size() - 1;
  }

  EngineEvent& slot(std::size_t s) noexcept { return pool_[s]; }

  /// Returns a slot to the free list (after the event was moved out).
  void release_slot(std::size_t s) { free_slots_.push_back(s); }

  /// Pushes must arrive in increasing seq (see EventQueue).
  void push(Entry e) {
    queue_.push(e);
    if (queue_.size() > peak_) peak_ = queue_.size();
  }

  /// Removes and returns the smallest entry. Precondition: !empty(). The
  /// slot is NOT released — callers move the event out first, then call
  /// release_slot (filling a slot can grow the pool and invalidate
  /// references into it).
  Entry pop() { return queue_.pop(); }

 private:
  std::vector<EngineEvent> pool_;       ///< event storage (slots)
  EventQueue queue_;                    ///< (key, seq) order over the pool
  std::vector<std::size_t> free_slots_;  ///< recycled pool slots
  std::size_t peak_ = 0;                ///< queue high-water mark
};

}  // namespace oraclesize
