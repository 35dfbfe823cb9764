#include "sim/event_queue.hpp"

#include <algorithm>

#include "check/check.hpp"

namespace uvmsim {

std::uint32_t EventQueue::register_warp_stepper(WarpStepFn fn, void* ctx) {
  UVM_CHECK(fn != nullptr, "EventQueue: null warp stepper");
  steppers_.push_back(WarpStepper{fn, ctx});
  return static_cast<std::uint32_t>(steppers_.size());  // 1-based: 0 = action
}

Cycle EventQueue::rescan_wheel_from(Cycle from) const noexcept {
  const std::size_t start = static_cast<std::size_t>(from) & kWheelMask;
  const std::size_t word = start >> 6;
  const unsigned bit = static_cast<unsigned>(start & 63);
  // Bits at or above `bit` in the first word are cycles from..(end of word).
  const std::uint64_t head = occ_[word] >> bit;
  if (head != 0) return from + static_cast<Cycle>(std::countr_zero(head));
  Cycle dist = 64 - bit;
  for (std::size_t i = 1; i < kOccWords; ++i) {
    const std::uint64_t w = occ_[(word + i) & (kOccWords - 1)];
    if (w != 0) return from + dist + static_cast<Cycle>(std::countr_zero(w));
    dist += 64;
  }
  // Wrapped tail of the first word: bits below `bit` are cycles just short
  // of from + span.
  const std::uint64_t tail = bit != 0 ? occ_[word] & ((std::uint64_t{1} << bit) - 1) : 0;
  if (tail != 0) return from + dist + static_cast<Cycle>(std::countr_zero(tail));
  return kNeverCycle;  // caller guarantees wheel_count_ > 0 — unreachable
}

void EventQueue::sift_up(std::size_t i) noexcept {
  const HeapEntry v = heap_[i];
  while (i != 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = v;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const HeapEntry v = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], v)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = v;
}

void EventQueue::fire(std::uint32_t payload, std::uint32_t kind) {
  ++executed_;
  if (kind == kKindAction) {
    Slot& s = slots_[payload];
    EventAction act = std::move(s.act);
    // Recycle the slot before firing: the action may schedule (reusing this
    // slot) or grow the pool, which would invalidate `s`.
    s.next_free = free_head_;
    free_head_ = payload;
    act();
  } else {
    const WarpStepper& st = steppers_[kind - 1];
    st.fn(st.ctx, payload);
  }
}

bool EventQueue::step() {
  const bool have_wheel = wheel_count_ != 0;
  // Heap events stay in the heap even once the clock brings them inside the
  // wheel span — ordering is enforced by merging the two fronts here.
  bool take_wheel = have_wheel;
  if (have_wheel && !heap_.empty()) {
    const HeapEntry& h = heap_.front();
    if (h.when != wheel_next_) {
      take_wheel = wheel_next_ < h.when;
    } else {
      const Bucket& bucket = buckets_[static_cast<std::size_t>(wheel_next_) & kWheelMask];
      take_wheel = nodes_[bucket.head].seq < h.seq;
    }
  } else if (!have_wheel && heap_.empty()) {
    return false;
  }

  if (take_wheel) {
    const std::size_t b = static_cast<std::size_t>(wheel_next_) & kWheelMask;
    Bucket& bucket = buckets_[b];
    const std::uint32_t n = bucket.head;
    const Node e = nodes_[n];
    bucket.head = e.next;
    // Recycle the node before firing: the event may schedule (reusing it).
    nodes_[n].next = free_node_;
    free_node_ = n;
    --wheel_count_;
    now_ = wheel_next_;
    if (e.next == kNoSlot) {  // popped the tail: the bucket is drained
      occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      // Everything left in the wheel is strictly later than now_ (same-cycle
      // pushes would have landed in the bucket just drained); a later push at
      // now_ re-lowers wheel_next_ via the min in push_entry.
      wheel_next_ = wheel_count_ != 0 ? rescan_wheel_from(now_ + 1) : kNeverCycle;
    }
    fire(e.payload, e.kind);
  } else {
    const HeapEntry e = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    now_ = e.when;
    fire(e.payload, e.kind);
  }
  return true;
}

Cycle EventQueue::run() {
  while (step()) {
  }
  return now_;
}

std::uint64_t EventQueue::run_bounded(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace uvmsim
