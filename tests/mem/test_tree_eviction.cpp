// Tree-based page replacement (ISCA'19 comparator): subtree-granularity
// eviction around the victim chunk's LRU block.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "mem/eviction.hpp"

namespace uvmsim {
namespace {

class TreeEvictionTest : public ::testing::Test {
 protected:
  TreeEvictionTest() : counters_(128, 16) {
    space_.allocate("a", 2 * kLargePageSize);
    table_ = std::make_unique<BlockTable>(space_);
  }

  void residency(BlockNum b, Cycle ts) {
    table_->mark_in_flight(b);
    table_->mark_resident(b, ts);
    table_->touch(b, AccessType::kRead, ts);
  }

  AddressSpace space_;
  std::unique_ptr<BlockTable> table_;
  AccessCounterTable counters_;
};

TEST_F(TreeEvictionTest, EmptyChunkYieldsNothing) {
  EXPECT_TRUE(tree_eviction_subtree(0, *table_).empty());
}

TEST_F(TreeEvictionTest, LoneBlockEvictsJustItself) {
  residency(5, 10);
  const auto v = tree_eviction_subtree(0, *table_);
  EXPECT_EQ(v, (std::vector<BlockNum>{5}));
}

TEST_F(TreeEvictionTest, GrowsToLargestFullyResidentSubtree) {
  // Blocks 0..7 resident; block 2 is LRU. Subtrees {2,3}, {0..3}, {0..7} are
  // all fully resident; {0..15} is not -> evict 8 blocks.
  for (BlockNum b = 0; b < 8; ++b) residency(b, b == 2 ? 1 : 100);
  const auto v = tree_eviction_subtree(0, *table_);
  ASSERT_EQ(v.size(), 8u);
  EXPECT_EQ(v.front(), 0u);
  EXPECT_EQ(v.back(), 7u);
}

TEST_F(TreeEvictionTest, HoleLimitsTheSubtree) {
  // Blocks 0,1,3 resident (2 missing); LRU is 0: pair {0,1} is full, quad
  // {0..3} is not -> evict {0,1}.
  residency(0, 1);
  residency(1, 50);
  residency(3, 60);
  const auto v = tree_eviction_subtree(0, *table_);
  EXPECT_EQ(v, (std::vector<BlockNum>{0, 1}));
}

TEST_F(TreeEvictionTest, FullyResidentChunkEvictsWholeLargePage) {
  for (BlockNum b = 0; b < kBlocksPerLargePage; ++b) residency(b, b + 1);
  const auto v = tree_eviction_subtree(0, *table_);
  EXPECT_EQ(v.size(), kBlocksPerLargePage);
}

TEST_F(TreeEvictionTest, ManagerUsesSubtreeGranularity) {
  for (BlockNum b = 0; b < 8; ++b) residency(b, b == 6 ? 1 : 100);
  EvictionManager mgr(EvictionKind::kTree, kLargePageSize);
  mgr.attach_index(*table_, counters_);
  const auto victims = mgr.select_victims(*table_, counters_, VictimQuery{});
  // LRU block 6: pair {6,7} full, quad {4..7} full, {0..7} full -> 8 blocks.
  EXPECT_EQ(victims.size(), 8u);
}

TEST(TreeEvictionIntegration, RunsEndToEndAndEvictsFinerThanLru) {
  WorkloadParams params;
  params.scale = 0.2;
  SimConfig lru;
  lru.gpu.num_sms = 8;
  lru.gpu.warps_per_sm = 2;
  SimConfig tree = lru;
  lru.mem.eviction = EvictionKind::kLru;
  tree.mem.eviction = EvictionKind::kTree;

  const RunResult a = run_workload("ra", lru, 1.25, params);
  const RunResult b = run_workload("ra", tree, 1.25, params);
  ASSERT_GT(a.stats.evictions, 0u);
  ASSERT_GT(b.stats.evictions, 0u);
  // Subtree eviction displaces fewer pages per operation on average.
  const double lru_pages_per_evict =
      static_cast<double>(a.stats.pages_evicted) / static_cast<double>(a.stats.evictions);
  const double tree_pages_per_evict =
      static_cast<double>(b.stats.pages_evicted) / static_cast<double>(b.stats.evictions);
  EXPECT_LT(tree_pages_per_evict, lru_pages_per_evict);
}

}  // namespace
}  // namespace uvmsim
