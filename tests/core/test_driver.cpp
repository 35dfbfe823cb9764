#include "core/uvm_driver.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

namespace uvmsim {
namespace {

/// Driver test fixture with a tiny device (2 large pages) and manual clock.
class DriverTest : public ::testing::Test {
 protected:
  DriverTest() { rebuild(SimConfig{}); }

  void rebuild(SimConfig cfg, std::uint64_t capacity = 2 * kLargePageSize,
               std::uint64_t va_bytes = 8 * kLargePageSize) {
    cfg_ = cfg;
    space_ = AddressSpace{};
    space_.allocate("a", va_bytes);
    queue_ = EventQueue{};
    stats_ = SimStats{};
    driver_ = std::make_unique<UvmDriver>(cfg_, space_, capacity, queue_, stats_);
    woken_.clear();
    wakes_.clear();
    driver_->set_warp_waker(
        [](void* self, WarpId w, Cycle c) {
          auto* t = static_cast<DriverTest*>(self);
          t->woken_[w] = c;
          t->wakes_.emplace_back(w, c);
        },
        this);
  }

  /// Issue an access and drain the event queue.
  AccessOutcome access(VirtAddr addr, AccessType t = AccessType::kRead,
                       std::uint32_t count = 1, WarpId w = 0) {
    const auto out = driver_->access(w, addr, t, count, queue_.now());
    queue_.run();
    return out;
  }

  SimConfig cfg_;
  AddressSpace space_;
  EventQueue queue_;
  SimStats stats_;
  std::unique_ptr<UvmDriver> driver_;
  std::map<WarpId, Cycle> woken_;
  std::vector<std::pair<WarpId, Cycle>> wakes_;  ///< every wake, in call order
};

TEST_F(DriverTest, FirstTouchMigratesAndWakes) {
  const auto out = access(0);
  EXPECT_TRUE(out.stalled);
  EXPECT_EQ(stats_.far_faults, 1u);
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kDevice);
  ASSERT_TRUE(woken_.contains(0));
  // Wake time covers fault handling plus the PCIe transfer.
  EXPECT_GT(woken_[0], cfg_.far_fault_cycles());
  EXPECT_TRUE(driver_->idle());
}

TEST_F(DriverTest, ResidentAccessCompletesLocally) {
  access(0);
  const auto out = access(0);
  EXPECT_FALSE(out.stalled);
  EXPECT_GE(stats_.local_accesses, 1u);
  EXPECT_GE(out.done, cfg_.gpu.dram_latency);
}

TEST_F(DriverTest, TreePrefetchPullsNeighbours) {
  // Touch blocks until the chunk occupancy crosses 50 %: prefetches appear.
  for (BlockNum b = 0; b <= 16; ++b) access(addr_of_block(b));
  EXPECT_GT(stats_.blocks_prefetched, 0u);
  // Chunk 0 fully resident after the cascade.
  EXPECT_TRUE(driver_->blocks().chunk_fully_resident(0));
}

TEST_F(DriverTest, HistoricCountersTrackAllAccesses) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;  // historic counter semantics
  rebuild(cfg, /*capacity=*/16 * kLargePageSize);
  access(0, AccessType::kRead, 3);  // migrates (first touch on empty device)
  access(0, AccessType::kRead, 2);  // local — still counted
  EXPECT_EQ(driver_->counters().count(0), 5u);
}

TEST_F(DriverTest, VoltaCountersResetOnMigrationAndSkipLocal) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kStaticAlways;
  rebuild(cfg);
  for (int i = 0; i < 7; ++i) access(0);  // remote accesses are counted
  EXPECT_EQ(driver_->counters().count(0), 7u);
  access(0);  // 8th crosses ts -> migrates -> counter clears
  EXPECT_EQ(driver_->counters().count(0), 0u);
  access(0, AccessType::kRead, 4);  // local accesses are not counted
  EXPECT_EQ(driver_->counters().count(0), 0u);
}

TEST_F(DriverTest, EvictionOnCapacityPressure) {
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg);  // 2 large pages = 64 blocks
  for (BlockNum b = 0; b < 80; ++b) access(addr_of_block(b));
  EXPECT_GT(stats_.evictions, 0u);
  EXPECT_GT(stats_.pages_evicted, 0u);
  EXPECT_TRUE(driver_->device().ever_full());
  EXPECT_LE(driver_->device().used_blocks(), driver_->device().capacity_blocks());
}

TEST_F(DriverTest, ThrashingIsCountedOnReMigration) {
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg);
  // Fill beyond capacity, then return to block 0 (evicted by then).
  for (BlockNum b = 0; b < 70; ++b) access(addr_of_block(b));
  ASSERT_EQ(driver_->blocks().block(0).residence, Residence::kHost);
  EXPECT_GT(driver_->blocks().block(0).round_trips, 0u);
  const auto thrashed_before = stats_.pages_thrashed;
  access(0);
  EXPECT_EQ(stats_.pages_thrashed, thrashed_before + kPagesPerBlock);
  EXPECT_EQ(stats_.distinct_pages_thrashed, kPagesPerBlock);
}

TEST_F(DriverTest, DirtyEvictionWritesBack) {
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg);
  access(0, AccessType::kWrite);  // migrate + dirty
  access(0, AccessType::kWrite);
  for (BlockNum b = 1; b < 70; ++b) access(addr_of_block(b));
  EXPECT_GT(stats_.writeback_pages, 0u);
  EXPECT_GT(stats_.bytes_d2h, 0u);
}

TEST_F(DriverTest, CleanEvictionSkipsWriteback) {
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg);
  for (BlockNum b = 0; b < 70; ++b) access(addr_of_block(b));  // reads only
  EXPECT_GT(stats_.evictions, 0u);
  EXPECT_EQ(stats_.writeback_pages, 0u);
}

TEST_F(DriverTest, StaticAlwaysDelaysReadMigration) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kStaticAlways;
  cfg.policy.static_threshold = 8;
  rebuild(cfg);
  for (int i = 0; i < 7; ++i) {
    const auto out = access(0);
    EXPECT_FALSE(out.stalled);
  }
  EXPECT_EQ(stats_.remote_accesses, 7u);
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kHost);
  const auto out = access(0);  // 8th access crosses ts
  EXPECT_TRUE(out.stalled);
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kDevice);
}

TEST_F(DriverTest, StaticAlwaysWriteMigratesWithoutPrefetch) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kStaticAlways;
  rebuild(cfg);
  // Prime a chunk so the tree would prefetch on a faulting read.
  const auto out = access(addr_of_block(3), AccessType::kWrite);
  EXPECT_TRUE(out.stalled);
  EXPECT_EQ(stats_.write_forced_migrations, 1u);
  // Write-forced migration moves exactly the touched block.
  EXPECT_EQ(stats_.blocks_migrated, 1u);
  EXPECT_EQ(stats_.blocks_prefetched, 0u);
}

TEST_F(DriverTest, RemoteAccessesShareThePcieChannel) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kStaticAlways;
  rebuild(cfg);
  const auto before = driver_->pcie().h2d().total_bytes();
  access(0, AccessType::kRead, 4);
  // Zero-copy wire traffic includes the per-transaction overhead.
  EXPECT_EQ(driver_->pcie().h2d().total_bytes(),
            before + 4 * (kWarpAccessBytes + cfg_.xfer.remote_overhead_bytes));
}

TEST_F(DriverTest, RemoteWriteUsesD2hChannel) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kStaticAlways;
  cfg.policy.write_triggers_migration = false;
  rebuild(cfg);
  access(0, AccessType::kWrite, 2);
  EXPECT_EQ(driver_->pcie().d2h().total_bytes(),
            2 * (kWarpAccessBytes + cfg_.xfer.remote_overhead_bytes));
}

TEST_F(DriverTest, AdaptiveFallsBackToFirstTouchWhenEmpty) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;
  rebuild(cfg, /*capacity=*/16 * kLargePageSize);  // footprint (8 MB) fits
  const auto out = access(0);
  EXPECT_TRUE(out.stalled);  // td = 1 on an empty device
  EXPECT_EQ(stats_.remote_accesses, 0u);
}

TEST_F(DriverTest, AdaptiveDelaysFromStartWhenOvercommitted) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.policy.migration_penalty = 8;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg);  // footprint 8 MB > capacity 4 MB: Equation 1 branch 2
  // td = ts*p = 64 with r = 0: the 63rd transaction stays remote, the 64th
  // crosses the dynamic threshold.
  const auto o1 = access(0, AccessType::kRead, 63);
  EXPECT_FALSE(o1.stalled);
  EXPECT_EQ(stats_.remote_accesses, 63u);
  const auto o2 = access(0, AccessType::kRead, 1);
  EXPECT_TRUE(o2.stalled);
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kDevice);
}

TEST_F(DriverTest, AdaptiveHardensPinningWithRoundTrips) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.policy.migration_penalty = 8;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg);
  // Cross td = 64 on every block so the device fills and evicts.
  for (BlockNum b = 0; b < 70; ++b) access(addr_of_block(b), AccessType::kRead, 64);
  ASSERT_TRUE(driver_->device().ever_full());
  ASSERT_EQ(driver_->blocks().block(0).residence, Residence::kHost);
  ASSERT_GE(driver_->blocks().block(0).round_trips, 1u);
  // Block 0 was evicted (r >= 1): td >= 128 while its historic count is 64,
  // so accesses stay remote until the count catches up.
  const auto remote_before = stats_.remote_accesses;
  const auto out = access(0);
  EXPECT_FALSE(out.stalled);
  EXPECT_GT(stats_.remote_accesses, remote_before);
}

TEST_F(DriverTest, AdaptiveExtremePenaltyActsAsZeroCopy) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.policy.migration_penalty = 1048576;
  rebuild(cfg);  // overcommitted: td is astronomically high from the start
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(access(0, i % 2 == 0 ? AccessType::kRead : AccessType::kWrite, 16).stalled);
  }
  EXPECT_EQ(stats_.far_faults, 0u);
  EXPECT_EQ(stats_.blocks_migrated, 0u);
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kHost);
}

TEST_F(DriverTest, MultipleWaitersWakeTogether) {
  const auto o1 = driver_->access(1, 0, AccessType::kRead, 1, 0);
  const auto o2 = driver_->access(2, 64, AccessType::kRead, 1, 0);
  EXPECT_TRUE(o1.stalled);
  EXPECT_TRUE(o2.stalled);
  EXPECT_EQ(stats_.far_faults, 1u);  // second access joins the first fault
  queue_.run();
  EXPECT_TRUE(woken_.contains(1));
  EXPECT_TRUE(woken_.contains(2));
  EXPECT_EQ(stats_.replayed_accesses, 2u);
}

TEST_F(DriverTest, JoinedWaitersWakeInJoinOrderAtOneCycle) {
  // Warp 5 raises the fault; 2, 9 and 1 join the in-flight block later.
  ASSERT_TRUE(driver_->access(5, 0, AccessType::kRead, 1, 0).stalled);
  for (const WarpId w : {2u, 9u, 1u}) {
    ASSERT_TRUE(driver_->access(w, 128 * w, AccessType::kRead, 1, 0).stalled);
  }
  EXPECT_EQ(stats_.far_faults, 1u);
  queue_.run();
  ASSERT_EQ(wakes_.size(), 4u);
  const std::vector<WarpId> order{wakes_[0].first, wakes_[1].first, wakes_[2].first,
                                  wakes_[3].first};
  EXPECT_EQ(order, (std::vector<WarpId>{5, 2, 9, 1}));
  for (const auto& [w, ready] : wakes_) EXPECT_EQ(ready, wakes_[0].second) << w;
  EXPECT_EQ(stats_.replayed_accesses, 4u);
}

TEST_F(DriverTest, WarpStalledOnTwoBlocksWakesOncePerBlock) {
  // The same warp id faults on two chunks; each arrival wakes it once.
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg);
  ASSERT_TRUE(driver_->access(3, 0, AccessType::kRead, 1, 0).stalled);
  ASSERT_TRUE(driver_->access(3, kLargePageSize, AccessType::kRead, 1, 0).stalled);
  ASSERT_TRUE(driver_->access(4, kLargePageSize, AccessType::kRead, 1, 0).stalled);
  queue_.run();
  ASSERT_EQ(wakes_.size(), 3u);
  EXPECT_EQ(wakes_[0].first, 3u);
  EXPECT_EQ(wakes_[1].first, 3u);
  EXPECT_EQ(wakes_[2].first, 4u);
  EXPECT_LE(wakes_[0].second, wakes_[1].second);
  EXPECT_EQ(wakes_[1].second, wakes_[2].second);
  EXPECT_EQ(stats_.replayed_accesses, 3u);
  EXPECT_TRUE(driver_->idle());
}

TEST_F(DriverTest, ReplayedAccessesCountEveryWake) {
  // Waiter nodes are recycled across arrivals: successive waves of faults
  // and joins must wake exactly the warps that stalled, wave after wave.
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  rebuild(cfg, /*capacity=*/8 * kLargePageSize);
  std::uint64_t stalls = 0;
  for (BlockNum wave = 0; wave < 6; ++wave) {
    for (WarpId w = 0; w < 8; ++w) {
      const BlockNum b = wave * 8 + w % 3;  // 3 blocks per wave, shared
      if (driver_->access(w, addr_of_block(b), AccessType::kRead, 1, queue_.now()).stalled) {
        ++stalls;
      }
    }
    queue_.run();
  }
  EXPECT_EQ(stalls, 6u * 8u);
  EXPECT_EQ(wakes_.size(), stalls);
  EXPECT_EQ(stats_.replayed_accesses, stalls);
  EXPECT_EQ(stats_.far_faults, 6u * 3u);
}

TEST_F(DriverTest, FaultBatchingAmortizesHandling) {
  // Many distinct faults raised in the same cycle are drained in batches.
  for (WarpId w = 0; w < 32; ++w) {
    (void)driver_->access(w, addr_of_block(2 * w), AccessType::kRead, 1, 0);
  }
  queue_.run();
  EXPECT_EQ(stats_.far_faults, 32u);
  EXPECT_LE(stats_.fault_batches, 3u);  // 64-entry batches
}

TEST_F(DriverTest, CounterGranularityPageMode) {
  SimConfig cfg;
  cfg.mem.counter_granularity = kPageSize;
  cfg.policy.policy = PolicyKind::kAdaptive;  // overcommitted: accesses stay remote
  rebuild(cfg);
  access(0);
  access(kPageSize);
  EXPECT_EQ(driver_->counters().count(0), 1u);
  EXPECT_EQ(driver_->counters().count(kPageSize), 1u);
}

}  // namespace
}  // namespace uvmsim
