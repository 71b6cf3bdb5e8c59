// Min-queue of timed simulator events, ordered by (time, push order).
//
// The heap holds only 16-byte keys: the event time and a tag packing the
// push order (high bits) over the index of the event's payload in a slab
// (low bits). Push orders are unique, so comparing tags compares orders and
// (time, order) is a strict total order: every correct min-queue pops the
// same sequence, which is what keeps event logs bit-identical whatever the
// heap's shape. Payload slots are recycled through a free list, so a run's
// allocations stop growing once the queue reaches its peak size. A queue
// holds at most 2^24 pending events and hands out at most 2^40 push orders;
// beyond either it throws std::length_error.
//
// The heap is binary with hole-based sifts. On the rush serving workload
// it beat std::priority_queue over full 32-byte events, a 4-ary heap and
// bottom-up (Floyd) pops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace socl::serverless {

template <typename Payload>
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  double top_time() const { return heap_.front().time; }
  std::uint64_t top_order() const { return heap_.front().tag >> kSlotBits; }

  /// Hands out `n` consecutive push orders without queueing anything, for
  /// events the caller merges in from an already-sorted stream; returns the
  /// first one.
  std::uint64_t reserve_orders(std::uint64_t n) {
    const std::uint64_t first = next_order_;
    next_order_ += n;
    if (next_order_ > kMaxOrder) {
      throw std::length_error("EventQueue: push order overflow");
    }
    return first;
  }

  void push(double time, const Payload& payload) {
    std::uint64_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = payload;
    } else {
      slot = slab_.size();
      if (slot > kSlotMask) {
        throw std::length_error("EventQueue: too many pending events");
      }
      slab_.push_back(payload);
    }
    const Key key{time, (reserve_orders(1) << kSlotBits) | slot};
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(key, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  /// Removes the earliest event and returns its payload. Requires !empty().
  Payload pop() {
    const auto slot = static_cast<std::uint32_t>(heap_.front().tag & kSlotMask);
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
        if (!before(heap_[child], last)) break;
        heap_[i] = heap_[child];
        i = child;
      }
      heap_[i] = last;
    }
    free_.push_back(slot);
    return slab_[slot];
  }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxOrder = 1ULL << (64 - kSlotBits);

  struct Key {
    double time;
    std::uint64_t tag;
  };

  static bool before(const Key& x, const Key& y) {
    return x.time < y.time || (x.time == y.time && x.tag < y.tag);
  }

  std::vector<Key> heap_;
  std::vector<Payload> slab_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_order_ = 0;
};

}  // namespace socl::serverless
