// Discrete-event kernel: a monotonic cycle clock plus a priority queue of
// (cycle, sequence, action) events. Sequence numbers break ties so that
// same-cycle events fire in schedule order (deterministic replay).
//
// Hot-path layout (see docs/PERF.md): the queue is one timing-wheel level
// in front of a 4-ary heap. Events landing within the wheel span
// (`when - now < kWheelSpan`, which covers every warp step of every
// registered workload, DRAM/PCIe latencies and the fault-batch window — the
// overwhelming majority) are appended to a per-cycle bucket in O(1); only
// far events (the 45 us far-fault service delay, zero-copy accesses queued
// behind a busy PCIe link) reach the heap. Because the global
// sequence counter is monotone, a bucket is sorted by construction, so pop
// is "merge heap top with the front of the earliest non-empty bucket" —
// strict (when, seq) order is preserved exactly and replay stays
// bit-identical with the heap-only implementation.
//
// A bucket is a FIFO threaded through one shared node pool, so the wheel's
// memory is a 64 KB head/tail array plus a 1 KB occupancy bitmap plus one
// node per event pending at once: the kernel's hottest structure stays
// small enough that other work on the core does not push it out of cache
// (docs/PERF.md, "Run-to-run spread"). The bitmap is the only emptiness
// test, so the head/tail array is never initialised: the simulator builds a
// queue per run, and a fuzz campaign one per case.
//
// Two event flavours share the wheel and the heap:
//   * actions — EventAction (small-buffer type-erased callables) in a slot
//     pool recycled through an intrusive free list;
//   * warp steps — a plain WarpId routed to a registered warp stepper
//     (fn + ctx). GpuModel schedules tens of millions of these per run;
//     carrying a 4-byte id instead of a 48-byte callable keeps the hot
//     schedule/fire cycle allocation-free and memcpy-light.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "sim/types.hpp"

namespace uvmsim {

/// Move-only type-erased `void()` callable with inline storage sized for the
/// simulator's capture sizes (the driver/GPU `[this, b]`-style lambdas and a
/// libstdc++ std::function both fit), so scheduling allocates nothing.
/// Larger callables — or ones whose move may throw — fall back to the heap.
class EventAction {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventAction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, EventAction> &&
                                 std::is_invocable_r_v<void, D&>,
                             int> = 0>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  EventAction(F&& f) {
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &InlineOps<D>::vt;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      vt_ = &HeapOps<D>::vt;
    }
  }

  EventAction(EventAction&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      if (vt_->trivial)
        std::memcpy(buf_, other.buf_, kInlineSize);
      else
        vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        if (vt_->trivial)
          std::memcpy(buf_, other.buf_, kInlineSize);
        else
          vt_->relocate(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;

  ~EventAction() { reset(); }

  /// Destroy the held callable (if any); the action becomes empty.
  void reset() noexcept {
    if (vt_ != nullptr) {
      if (!vt_->trivial) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    /// Move-construct the callable into `dst` from `src` and destroy `src`
    /// (for heap-held callables this just transfers the owning pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    /// Relocation is a plain byte copy and destruction a no-op — lets the
    /// hot move/reset paths skip the indirect calls entirely (true for the
    /// driver's pointer-and-integer capture lambdas).
    bool trivial;
  };

  template <typename D>
  struct InlineOps {
    static D* self(void* p) noexcept { return static_cast<D*>(p); }
    static void invoke(void* p) { (*self(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*self(src)));
      self(src)->~D();
    }
    static void destroy(void* p) noexcept { self(p)->~D(); }
    static constexpr VTable vt{&invoke, &relocate, &destroy,
                               std::is_trivially_copyable_v<D> &&
                                   std::is_trivially_destructible_v<D>};
  };

  template <typename D>
  struct HeapOps {
    static D** self(void* p) noexcept { return static_cast<D**>(p); }
    static void invoke(void* p) { (**self(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(*self(src));
    }
    static void destroy(void* p) noexcept { delete *self(p); }
    static constexpr VTable vt{&invoke, &relocate, &destroy, false};
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const VTable* vt_ = nullptr;
};

class EventQueue {
 public:
  using Action = EventAction;
  /// Warp-step handler: a plain function pointer + context so firing a warp
  /// step is one indirect call with no type-erased callable in between.
  using WarpStepFn = void (*)(void* ctx, WarpId w);

  /// Cycles covered by the near-future wheel; events further out go to the
  /// heap. Sized so a warp's next step always lands on the wheel: the
  /// largest registered gap (srad, 6500) plus the worst unqueued access
  /// latency under the default config (517 cycles) stays below it, as
  /// WorkloadGaps.EveryWarpStepLandsOnTheWheel checks. Public for that test
  /// and for the equivalence property test's boundary delays.
  static constexpr Cycle kWheelSpan = 8192;

  /// Schedule `act` to run at absolute cycle `when` (must be >= now(); the
  /// clock never runs backwards, so a past event could never fire).
  /// Inline along with schedule_warp_at and push_entry: scheduling happens
  /// once per simulated access, and the wheel append is small enough that the
  /// call overhead dominated it.
  void schedule_at(Cycle when, Action act) {
    // Timestamp monotonicity: the clock only moves forward, so an event in
    // the past could never fire (deterministic-replay invariant).
    UVM_CHECK(when >= now_, "EventQueue: scheduling into the past; when=" << when
                  << " now=" << now_ << " pending=" << pending());
    std::uint32_t si;
    if (free_head_ != kNoSlot) {
      si = free_head_;
      Slot& s = slots_[si];
      free_head_ = s.next_free;
      s.act = std::move(act);
    } else {
      si = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(act), kNoSlot});
    }
    push_entry(when, si, kKindAction);
  }
  /// Schedule `act` to run `delay` cycles after now().
  void schedule_in(Cycle delay, Action act) { schedule_at(now_ + delay, std::move(act)); }

  /// Register a warp-step handler and get back an opaque nonzero handle for
  /// schedule_warp_at. One handler per GpuModel: multi-GPU simulations share
  /// a single queue across several models, so the handle routes each warp
  /// step back to the model that owns the warp.
  std::uint32_t register_warp_stepper(WarpStepFn fn, void* ctx);

  /// Schedule warp `w` of handler `stepper` to step at absolute cycle `when`
  /// (same monotonicity rule as schedule_at). Shares the global (when, seq)
  /// order with every action event.
  void schedule_warp_at(Cycle when, std::uint32_t stepper, WarpId w) {
    UVM_CHECK(when >= now_, "EventQueue: scheduling warp step into the past; when="
                  << when << " now=" << now_);
    UVM_CHECK(stepper != kKindAction && stepper <= steppers_.size(),
              "EventQueue: unknown warp stepper handle " << stepper);
    push_entry(when, w, stepper);
  }
  void schedule_warp_in(Cycle delay, std::uint32_t stepper, WarpId w) {
    schedule_warp_at(now_ + delay, stepper, w);
  }

  /// Pop and run the next event; returns false when the queue is empty.
  bool step();
  /// Run until the queue drains; returns the final clock value.
  Cycle run();
  /// Run at most `max_events` events (guard for tests); returns events run.
  std::uint64_t run_bounded(std::uint64_t max_events);

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  /// Cycle the next step() will advance the clock to; kNeverCycle when the
  /// queue is empty. Lets an observer act on the clock between events
  /// without scheduling any of its own.
  [[nodiscard]] Cycle next_event_cycle() const noexcept {
    if (heap_.empty()) return wheel_next_;
    return wheel_next_ < heap_.front().when ? wheel_next_ : heap_.front().when;
  }
  [[nodiscard]] bool empty() const noexcept { return wheel_count_ == 0 && heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size() + wheel_count_; }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// Entry kind 0 is an action (payload = slot index); kind k >= 1 is a warp
  /// step for steppers_[k - 1] (payload = WarpId).
  static constexpr std::uint32_t kKindAction = 0;

  static constexpr std::size_t kWheelMask = static_cast<std::size_t>(kWheelSpan) - 1;
  static constexpr std::size_t kOccWords = static_cast<std::size_t>(kWheelSpan) / 64;
  static_assert((kWheelSpan & (kWheelSpan - 1)) == 0, "wheel span must be a power of two");

  struct Slot {
    EventAction act;
    std::uint32_t next_free = kNoSlot;  ///< free-list link while recycled
  };

  /// Wheel node: one pending in-wheel event, linked into its bucket's FIFO
  /// (or, once fired, into the free list). All live nodes of one bucket share
  /// the same absolute cycle (every wheel event satisfies when ∈ [now,
  /// now+span), so two cycles can never alias to one bucket), and the
  /// monotone global seq means tail appends keep each FIFO sorted — the head
  /// is the minimum.
  struct Node {
    std::uint64_t seq;
    std::uint32_t payload;
    std::uint32_t kind;
    std::uint32_t next;  ///< next node of the same bucket (or free list)
  };
  /// One wheel bucket: head and tail of its FIFO in nodes_. Deliberately
  /// left uninitialised: a bucket is empty while its occ_ bit is clear, and
  /// head and tail are only read while it is set.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// Heap node: ordering keys inline so comparisons never touch the pool.
  struct HeapEntry {
    Cycle when;
    std::uint64_t seq;
    std::uint32_t payload;
    std::uint32_t kind;
  };

  struct WarpStepper {
    WarpStepFn fn;
    void* ctx;
  };

  /// Strict (when, seq) order; seq is unique, so ties never reach the heap's
  /// arbitrary layout — pop order is fully deterministic.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  void push_entry(Cycle when, std::uint32_t payload, std::uint32_t kind) {
    const std::uint64_t seq = next_seq_++;
    if (when - now_ < kWheelSpan) {
      std::uint32_t n = free_node_;
      if (n != kNoSlot) {
        free_node_ = nodes_[n].next;
        nodes_[n] = Node{seq, payload, kind, kNoSlot};
      } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{seq, payload, kind, kNoSlot});
      }
      const std::size_t b = static_cast<std::size_t>(when) & kWheelMask;
      Bucket& bucket = buckets_[b];
      std::uint64_t& word = occ_[b >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (b & 63);
      if ((word & bit) == 0) {
        word |= bit;
        bucket.head = n;
      } else {
        nodes_[bucket.tail].next = n;
      }
      bucket.tail = n;
      ++wheel_count_;
      if (when < wheel_next_) wheel_next_ = when;
    } else {
      heap_.push_back(HeapEntry{when, seq, payload, kind});
      sift_up(heap_.size() - 1);
    }
  }
  void fire(std::uint32_t payload, std::uint32_t kind);
  /// Smallest occupied wheel cycle >= `from`, assuming every wheel event lies
  /// in [from, from + span) — the caller guarantees wheel_count_ > 0.
  [[nodiscard]] Cycle rescan_wheel_from(Cycle from) const noexcept;

  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap fallback for far events
  std::vector<Slot> slots_;      ///< grows to the high-water mark, then stable
  std::uint32_t free_head_ = kNoSlot;

  std::array<Bucket, kWheelSpan> buckets_;  ///< valid only where occ_ is set
  std::array<std::uint64_t, kOccWords> occ_{};  ///< bucket-occupancy bitmap
  /// Node pool shared by every bucket: grows to the high-water mark of
  /// pending in-wheel events, then recycles through the free list.
  std::vector<Node> nodes_;
  std::uint32_t free_node_ = kNoSlot;  ///< free-list head in nodes_
  std::size_t wheel_count_ = 0;   ///< undrained entries across all buckets
  Cycle wheel_next_ = kNeverCycle;  ///< earliest occupied wheel cycle

  std::vector<WarpStepper> steppers_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace uvmsim
