// The "not currently addressed by scheduled warps" approximation: chunks
// accessed within the protect window are shielded from eviction while
// anything colder exists.
#include <gtest/gtest.h>

#include "mem/eviction.hpp"

namespace uvmsim {
namespace {

class ProtectionTest : public ::testing::Test {
 protected:
  ProtectionTest() : counters_(128, 16) {
    space_.allocate("a", 4 * kLargePageSize);
    table_ = std::make_unique<BlockTable>(space_);
    mgr_.attach_index(*table_, counters_);
  }

  void fill_chunk(ChunkNum c, Cycle accessed_at) {
    const BlockNum first = first_block_of_chunk(c);
    for (BlockNum b = first; b < first + kBlocksPerLargePage; ++b) {
      table_->mark_in_flight(b);
      table_->mark_resident(b, accessed_at);
      table_->touch(b, AccessType::kRead, accessed_at);
    }
  }

  AddressSpace space_;
  std::unique_ptr<BlockTable> table_;
  AccessCounterTable counters_;
  EvictionManager mgr_{EvictionKind::kLru, kLargePageSize};
};

TEST_F(ProtectionTest, RecentChunksAreShielded) {
  fill_chunk(0, 900);   // busy: accessed within the window
  fill_chunk(1, 100);   // cold
  VictimQuery q{0, false, /*now=*/1000, /*protect_window=*/500};
  const auto victims = mgr_.select_victims(*table_, counters_, q);
  ASSERT_FALSE(victims.empty());
  EXPECT_EQ(chunk_of_block(victims.front()), 1u);
}

TEST_F(ProtectionTest, LruOrderStillAppliesAmongColdChunks) {
  fill_chunk(0, 100);
  fill_chunk(1, 50);
  fill_chunk(2, 990);  // busy
  VictimQuery q{0, false, 1000, 500};
  const auto victims = mgr_.select_victims(*table_, counters_, q);
  EXPECT_EQ(chunk_of_block(victims.front()), 1u);
}

TEST_F(ProtectionTest, FallsBackToBusyChunksWhenNothingElseExists) {
  fill_chunk(0, 990);
  fill_chunk(1, 995);
  VictimQuery q{0, false, 1000, 500};
  const auto victims = mgr_.select_victims(*table_, counters_, q);
  ASSERT_FALSE(victims.empty());  // progress is guaranteed
  EXPECT_EQ(chunk_of_block(victims.front()), 0u);  // LRU among the busy
}

TEST_F(ProtectionTest, ZeroWindowDisablesProtection) {
  fill_chunk(0, 999);
  fill_chunk(1, 1000);
  VictimQuery q{0, false, 1000, 0};
  const auto victims = mgr_.select_victims(*table_, counters_, q);
  EXPECT_EQ(chunk_of_block(victims.front()), 0u);  // plain LRU
}

TEST_F(ProtectionTest, EarlyCyclesDoNotUnderflow) {
  fill_chunk(0, 5);
  VictimQuery q{0, false, /*now=*/10, /*protect_window=*/500};
  // now < window: cutoff clamps to 0 and the only chunk counts as busy but
  // is still returned via the fallback.
  const auto victims = mgr_.select_victims(*table_, counters_, q);
  EXPECT_FALSE(victims.empty());
}

TEST_F(ProtectionTest, BusyPartialChunksAreLastResort) {
  // Busy full chunk vs busy partial chunk: prefer the full one.
  fill_chunk(0, 995);
  const BlockNum first = first_block_of_chunk(1);
  table_->mark_in_flight(first);
  table_->mark_resident(first, 990);
  table_->touch(first, AccessType::kRead, 990);
  VictimQuery q{0, false, 1000, 500};
  const auto victims = mgr_.select_victims(*table_, counters_, q);
  ASSERT_FALSE(victims.empty());
  EXPECT_EQ(chunk_of_block(victims.front()), 0u);
  EXPECT_EQ(victims.size(), kBlocksPerLargePage);
}

}  // namespace
}  // namespace uvmsim
