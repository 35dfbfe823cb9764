// Driver edge cases: capacity starvation, in-flight collisions, prefetch
// dropping, writeback gating, and PCIe accounting under pressure.
#include <gtest/gtest.h>

#include <map>

#include "core/uvm_driver.hpp"

namespace uvmsim {
namespace {

class DriverEdgeTest : public ::testing::Test {
 protected:
  void build(SimConfig cfg, std::uint64_t capacity, std::uint64_t va_bytes) {
    cfg_ = cfg;
    space_ = AddressSpace{};
    space_.allocate("a", va_bytes);
    queue_ = EventQueue{};
    stats_ = SimStats{};
    driver_ = std::make_unique<UvmDriver>(cfg_, space_, capacity, queue_, stats_);
    driver_->set_warp_waker(
        [](void* self, WarpId w, Cycle c) { static_cast<DriverEdgeTest*>(self)->woken_[w] = c; },
        this);
  }

  SimConfig cfg_;
  AddressSpace space_;
  EventQueue queue_;
  SimStats stats_;
  std::unique_ptr<UvmDriver> driver_;
  std::map<WarpId, Cycle> woken_;
};

TEST_F(DriverEdgeTest, MinimalCapacityStillMakesProgress) {
  // One large page of device memory, working set of four: every fault must
  // be serviced by evicting the previous resident chunk.
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  build(cfg, kLargePageSize, 4 * kLargePageSize);
  for (BlockNum b = 0; b < 4 * kBlocksPerLargePage; ++b) {
    (void)driver_->access(0, addr_of_block(b), AccessType::kRead, 1, queue_.now());
    queue_.run();
    EXPECT_EQ(driver_->blocks().block(b).residence, Residence::kDevice);
  }
  EXPECT_TRUE(driver_->idle());
  EXPECT_GT(stats_.evictions, 0u);
}

TEST_F(DriverEdgeTest, BurstLargerThanCapacityDefersButCompletes) {
  // 64 distinct faults raised in one cycle against a 32-block device: the
  // fault engine must defer and retry as arrivals/evictions free space.
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  build(cfg, kLargePageSize, 4 * kLargePageSize);
  for (WarpId w = 0; w < 64; ++w) {
    const auto out =
        driver_->access(w, addr_of_block(w), AccessType::kRead, 1, 0);
    EXPECT_TRUE(out.stalled);
  }
  queue_.run();
  EXPECT_EQ(woken_.size(), 64u);
  EXPECT_TRUE(driver_->idle());
  EXPECT_LE(driver_->device().used_blocks(), driver_->device().capacity_blocks());
}

TEST_F(DriverEdgeTest, PrefetchBlocksAreDroppedUnderStarvation) {
  // Tree prefetcher wants to pull big sets, but the device only holds one
  // chunk; prefetch candidates must be dropped, not deadlock the engine.
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kTree;
  build(cfg, kLargePageSize, 8 * kLargePageSize);
  for (BlockNum b = 0; b < 2 * kBlocksPerLargePage; ++b) {
    (void)driver_->access(0, addr_of_block(b), AccessType::kRead, 1, queue_.now());
    queue_.run();
  }
  EXPECT_TRUE(driver_->idle());
  EXPECT_LE(driver_->device().used_blocks(), driver_->device().capacity_blocks());
}

TEST_F(DriverEdgeTest, WritebackGatesTheReplacementMigration) {
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  cfg.mem.eviction_protect_cycles = 0;
  build(cfg, kLargePageSize, 4 * kLargePageSize);

  // Fill chunk 0 with dirty data.
  for (BlockNum b = 0; b < kBlocksPerLargePage; ++b) {
    (void)driver_->access(0, addr_of_block(b), AccessType::kWrite, 1, queue_.now());
    queue_.run();
  }
  const auto d2h_before = driver_->pcie().d2h().total_bytes();

  // Fault into chunk 1: evicts the dirty chunk -> 2 MB of writebacks.
  (void)driver_->access(0, addr_of_block(kBlocksPerLargePage), AccessType::kRead, 1,
                        queue_.now());
  queue_.run();
  EXPECT_EQ(driver_->pcie().d2h().total_bytes() - d2h_before, kLargePageSize);
  EXPECT_EQ(stats_.writeback_pages, kPagesPerLargePage);
}

TEST_F(DriverEdgeTest, CleanDataNeverTouchesTheD2hChannel) {
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  build(cfg, kLargePageSize, 4 * kLargePageSize);
  for (BlockNum b = 0; b < 3 * kBlocksPerLargePage; ++b) {
    (void)driver_->access(0, addr_of_block(b), AccessType::kRead, 1, queue_.now());
    queue_.run();
  }
  EXPECT_EQ(driver_->pcie().d2h().total_bytes(), 0u);
}

TEST_F(DriverEdgeTest, AccessToInFlightBlockJoinsWaitersWithoutNewFault) {
  build(SimConfig{}, 2 * kLargePageSize, 4 * kLargePageSize);
  const auto o1 = driver_->access(1, 0, AccessType::kRead, 1, 0);
  ASSERT_TRUE(o1.stalled);
  const auto faults = stats_.far_faults;
  const auto o2 = driver_->access(2, kPageSize, AccessType::kWrite, 1, 0);
  EXPECT_TRUE(o2.stalled);
  EXPECT_EQ(stats_.far_faults, faults);  // joined, not re-raised
  queue_.run();
  EXPECT_TRUE(woken_.contains(1));
  EXPECT_TRUE(woken_.contains(2));
}

TEST_F(DriverEdgeTest, EvictedBlockRefaultsAndMigratesAgain) {
  SimConfig cfg;
  cfg.mem.prefetcher = PrefetcherKind::kNone;
  cfg.mem.eviction_protect_cycles = 0;
  build(cfg, kLargePageSize, 2 * kLargePageSize);
  (void)driver_->access(0, 0, AccessType::kRead, 1, 0);
  queue_.run();
  // Evict chunk 0 by filling chunk 1.
  for (BlockNum b = kBlocksPerLargePage; b < 2 * kBlocksPerLargePage; ++b) {
    (void)driver_->access(0, addr_of_block(b), AccessType::kRead, 1, queue_.now());
    queue_.run();
  }
  ASSERT_EQ(driver_->blocks().block(0).residence, Residence::kHost);
  const auto migrated = stats_.blocks_migrated;
  (void)driver_->access(0, 0, AccessType::kRead, 1, queue_.now());
  queue_.run();
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kDevice);
  EXPECT_GT(stats_.blocks_migrated, migrated);
  EXPECT_GE(driver_->blocks().block(0).round_trips, 1u);
}

TEST_F(DriverEdgeTest, RemoteAccessesQueueOnTheSharedChannel) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kStaticAlways;
  cfg.policy.static_threshold = 1000000;  // everything stays remote
  cfg.policy.write_triggers_migration = false;
  build(cfg, 2 * kLargePageSize, 4 * kLargePageSize);

  Cycle prev_done = 0;
  for (int i = 0; i < 16; ++i) {
    const auto out = driver_->access(0, 0, AccessType::kRead, 8, 0);
    ASSERT_FALSE(out.stalled);
    EXPECT_GT(out.done, prev_done);  // strictly later: channel serializes
    prev_done = out.done;
  }
  queue_.run();
  EXPECT_EQ(stats_.remote_accesses, 16u * 8u);
}

TEST_F(DriverEdgeTest, FirstTouchStatsHaveNoRemote) {
  build(SimConfig{}, 2 * kLargePageSize, 4 * kLargePageSize);
  for (BlockNum b = 0; b < 8; ++b) {
    (void)driver_->access(0, addr_of_block(b), AccessType::kRead, 1, queue_.now());
    queue_.run();
  }
  EXPECT_EQ(stats_.remote_accesses, 0u);
  EXPECT_EQ(stats_.decide_remote, 0u);
}

}  // namespace
}  // namespace uvmsim
