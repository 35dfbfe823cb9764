#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

namespace uvmsim {
namespace {

TEST(EventQueue, StartsEmptyAtCycleZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.next_event_cycle(), kNeverCycle);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameCycleEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_at(5, [&, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  Cycle seen = 0;
  q.schedule_at(100, [&] {
    q.schedule_in(50, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) q.schedule_in(1, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(q.now(), 9u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, PastSchedulingErrorCarriesCycleContext) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  try {
    q.schedule_at(40, [] {});
    FAIL() << "scheduling into the past must throw";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("when=40"), std::string::npos) << msg;
    EXPECT_NE(msg.find("now=100"), std::string::npos) << msg;
  }
}

TEST(EventAction, LargeCapturesFallBackToHeapCorrectly) {
  // A capture well past the inline buffer still runs and destructs exactly
  // once (exercises the heap-fallback vtable).
  EventQueue q;
  std::array<std::uint64_t, 32> payload{};  // 256 B > EventAction::kInlineSize
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  q.schedule_at(1, [payload, &sum] {
    for (const std::uint64_t v : payload) sum += v;
  });
  q.run();
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) expected += i * 3 + 1;
  EXPECT_EQ(sum, expected);
}

TEST(EventAction, SupportsMoveOnlyCaptures) {
  // EventAction is move-only, so (unlike std::function) actions may own
  // move-only state.
  EventQueue q;
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  q.schedule_at(7, [p = std::move(owned), &seen] { seen = *p + 1; });
  q.run();
  EXPECT_EQ(seen, 42);
}

TEST(EventAction, DestroysCapturesExactlyOnce) {
  struct Probe {
    std::shared_ptr<int> alive;
  };
  auto alive = std::make_shared<int>(1);
  {
    EventQueue q;
    q.schedule_at(1, [probe = Probe{alive}] { (void)probe; });
    EXPECT_EQ(alive.use_count(), 2);
    q.run();
    EXPECT_EQ(alive.use_count(), 1);  // fired actions release their captures
    q.schedule_at(1, [probe = Probe{alive}] { (void)probe; });
    EXPECT_EQ(alive.use_count(), 2);
  }
  // Unfired actions release on queue destruction.
  EXPECT_EQ(alive.use_count(), 1);
}

TEST(EventQueue, HeavyChurnPreservesDeterministicOrder) {
  // Interleave fire/schedule so slots are recycled, and verify the global
  // (cycle, sequence) order survives the slot reuse and pool growth.
  EventQueue q;
  std::vector<std::pair<Cycle, int>> fired;
  int scheduled = 0;
  std::function<void(int)> spawn = [&](int depth) {
    const int id = scheduled++;
    q.schedule_in(static_cast<Cycle>((id * 7) % 13), [&, id, depth] {
      fired.emplace_back(q.now(), id);
      if (depth > 0) {
        spawn(depth - 1);
        spawn(depth - 1);
      }
    });
  };
  spawn(7);
  q.run();
  ASSERT_EQ(fired.size(), 255u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].first, fired[i - 1].first) << "clock ran backwards at " << i;
  }
  // Same-cycle events must fire in schedule order (ids are schedule-ordered
  // only within one cycle when spawned at the same depth; re-run and compare
  // against a second identical queue for full determinism instead).
  EventQueue q2;
  std::vector<std::pair<Cycle, int>> fired2;
  scheduled = 0;
  std::function<void(int)> spawn2 = [&](int depth) {
    const int id = scheduled++;
    q2.schedule_in(static_cast<Cycle>((id * 7) % 13), [&, id, depth] {
      fired2.emplace_back(q2.now(), id);
      if (depth > 0) {
        spawn2(depth - 1);
        spawn2(depth - 1);
      }
    });
  };
  spawn2(7);
  q2.run();
  EXPECT_EQ(fired, fired2);
}

TEST(EventQueue, RunBoundedStopsAtLimit) {
  EventQueue q;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    q.schedule_in(1, forever);
  };
  q.schedule_at(0, forever);
  EXPECT_EQ(q.run_bounded(100), 100u);
  EXPECT_EQ(count, 100);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, ExecutedCountsAllEvents) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(static_cast<Cycle>(i), [] {});
  q.run();
  EXPECT_EQ(q.executed(), 5u);
}

// Randomized wheel ≡ heap equivalence. The queue routes events with
// `when - now < kWheelSpan` through the timing wheel and everything farther
// through the fallback heap; this property test drives both paths (plus the
// warp-stepper ring) against a single reference model — a plain min-heap of
// (when, seq) with seq mirroring the schedule-call order — and requires the
// fired sequence to match the model's pop order exactly. Delays interleave
// near (in-wheel), boundary (kWheelSpan +/- 1), far (heap, later walking
// into the wheel's window as the clock advances) and past-clamped targets,
// scheduled both up front and dynamically from inside firing events.
struct WheelPropertyHarness {
  using Key = std::pair<Cycle, std::uint64_t>;  // (when, schedule order)

  EventQueue q;
  std::mt19937_64 rng{0xC0FFEE};
  std::uint64_t next_seq = 0;
  std::uint64_t budget = 0;
  std::uint32_t stepper = 0;
  std::vector<Key> fired;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> model;
  std::vector<Cycle> wheel_whens;  ///< targets the queue routes to the wheel

  static void step_thunk(void* self, WarpId w) {
    static_cast<WheelPropertyHarness*>(self)->on_fire(w);
  }

  void on_fire(std::uint64_t seq) {
    fired.emplace_back(q.now(), seq);
    const std::uint64_t spawn = rng() % 3;  // 0..2 replacements per firing
    for (std::uint64_t i = 0; i < spawn && budget > 0; ++i) schedule_random();
  }

  void schedule_random() {
    --budget;
    Cycle when;
    switch (rng() % 8) {
      case 0: {  // "past": a target before now, clamped to now by the caller
        // (the GPU model's finish_access pattern: `next < now ? now : next`)
        const Cycle target = q.now() - std::min<Cycle>(q.now(), rng() % 50);
        when = target < q.now() ? q.now() : target;
        break;
      }
      case 1:  // wheel/heap boundary
        when = q.now() + EventQueue::kWheelSpan - 1 + rng() % 3;
        break;
      case 2:
      case 3:  // far: heap entries that later enter the wheel's window
        when = q.now() + rng() % (3 * EventQueue::kWheelSpan);
        break;
      default:  // near: dense in-wheel traffic
        when = q.now() + rng() % 100;
        break;
    }
    const std::uint64_t seq = next_seq++;
    model.emplace(when, seq);
    if (when - q.now() < EventQueue::kWheelSpan) wheel_whens.push_back(when);
    if (rng() % 2 == 0) {
      q.schedule_warp_at(when, stepper, static_cast<WarpId>(seq));
    } else {
      q.schedule_at(when, [this, seq] { on_fire(seq); });
    }
  }
};

TEST(EventQueueProperty, TimingWheelMatchesHeapPopOrder) {
  WheelPropertyHarness h;
  h.stepper = h.q.register_warp_stepper(&WheelPropertyHarness::step_thunk, &h);
  h.budget = 20000;
  for (int i = 0; i < 64 && h.budget > 0; ++i) h.schedule_random();
  // Step by hand so every pop also checks the peek against the clock.
  while (!h.q.empty()) {
    const Cycle next = h.q.next_event_cycle();
    ASSERT_TRUE(h.q.step());
    ASSERT_EQ(h.q.now(), next);
  }

  ASSERT_EQ(h.fired.size(), h.next_seq);
  for (std::size_t i = 0; i < h.fired.size(); ++i) {
    ASSERT_FALSE(h.model.empty());
    EXPECT_EQ(h.fired[i], h.model.top()) << "divergence at pop " << i;
    if (i > 0) {
      EXPECT_GE(h.fired[i].first, h.fired[i - 1].first)
          << "clock ran backwards at pop " << i;
    }
    h.model.pop();
  }
  EXPECT_TRUE(h.model.empty());
  EXPECT_EQ(h.q.executed(), h.next_seq);

  // The trace must refill drained buckets a whole revolution later: wheel
  // targets at two different cycles that share one bucket. A bucket's
  // head/tail are stale once drained, so this is the case where only the
  // occupancy bit may decide that the bucket is empty.
  std::vector<Cycle> first(static_cast<std::size_t>(EventQueue::kWheelSpan), kNeverCycle);
  std::uint64_t reused = 0;
  for (const Cycle when : h.wheel_whens) {
    Cycle& seen = first[static_cast<std::size_t>(when % EventQueue::kWheelSpan)];
    if (seen == kNeverCycle) {
      seen = when;
    } else if (seen != when) {
      ++reused;
    }
  }
  EXPECT_GT(reused, 0u) << "no bucket served two cycles; the clock never lapped the wheel";
}

TEST(EventQueue, ClockDoesNotAdvancePastLastEvent) {
  EventQueue q;
  q.schedule_at(42, [] {});
  q.run();
  EXPECT_EQ(q.now(), 42u);
  q.schedule_at(42, [] {});  // same-cycle scheduling after run is legal
  q.run();
  EXPECT_EQ(q.now(), 42u);
}

}  // namespace
}  // namespace uvmsim
