#include "mem/eviction.hpp"

#include <gtest/gtest.h>

#include "check/check.hpp"

namespace uvmsim {
namespace {

class EvictionTest : public ::testing::Test {
 protected:
  EvictionTest() : counters_(64, 16) {
    space_.allocate("a", 4 * kLargePageSize);  // chunks 0..3
    table_ = std::make_unique<BlockTable>(space_);
  }

  void make_resident(ChunkNum c, std::uint32_t blocks, Cycle when) {
    const BlockNum first = first_block_of_chunk(c);
    for (BlockNum b = first; b < first + blocks; ++b) {
      table_->mark_in_flight(b);
      table_->mark_resident(b, when);
      table_->touch(b, AccessType::kRead, when);
    }
  }

  void add_accesses(ChunkNum c, std::uint32_t n) {
    counters_.record_access(c * kLargePageSize, n);
  }

  /// Attach a `kind` manager's index to the table as built so far — the
  /// driver's wiring — and select victims for `q`.
  std::vector<BlockNum> select(EvictionKind kind, VictimQuery q = {},
                               std::uint64_t granularity = kLargePageSize) {
    mgr_ = std::make_unique<EvictionManager>(kind, granularity);
    mgr_->attach_index(*table_, counters_);
    return mgr_->select_victims(*table_, counters_, q);
  }

  AddressSpace space_;
  std::unique_ptr<BlockTable> table_;
  AccessCounterTable counters_;
  std::unique_ptr<EvictionManager> mgr_;
};

TEST_F(EvictionTest, LruPicksOldest) {
  make_resident(0, 32, 100);
  make_resident(1, 32, 50);
  make_resident(2, 32, 200);
  EXPECT_EQ(chunk_of_block(select(EvictionKind::kLru).at(0)), 1u);
}

TEST_F(EvictionTest, LruFollowsRecencyUpdates) {
  make_resident(0, 32, 10);
  make_resident(1, 32, 20);
  table_->touch(first_block_of_chunk(0), AccessType::kRead, 500);  // 0 becomes MRU
  EXPECT_EQ(chunk_of_block(select(EvictionKind::kLru).at(0)), 1u);
}

TEST_F(EvictionTest, LfuPicksColdest) {
  make_resident(0, 32, 10);
  make_resident(1, 32, 20);
  add_accesses(0, 1000);
  add_accesses(1, 3);
  EXPECT_EQ(chunk_of_block(select(EvictionKind::kLfu).at(0)), 1u);
}

TEST_F(EvictionTest, LfuFallsBackToLruOnUniformFrequency) {
  make_resident(0, 32, 100);
  make_resident(1, 32, 50);
  add_accesses(0, 10);
  add_accesses(1, 10);
  // Equal frequency, neither written: recency breaks the tie = LRU.
  EXPECT_EQ(chunk_of_block(select(EvictionKind::kLfu).at(0)), 1u);
}

TEST_F(EvictionTest, LfuPrefersReadOnlyOnFrequencyTie) {
  make_resident(0, 32, 10);
  make_resident(1, 32, 20);
  add_accesses(0, 10);
  add_accesses(1, 10);
  table_->touch(first_block_of_chunk(0), AccessType::kWrite, 30);  // chunk 0 written
  // Chunk 1 is read-only; despite being more recent, it goes first.
  EXPECT_EQ(chunk_of_block(select(EvictionKind::kLfu).at(0)), 1u);
}

TEST_F(EvictionTest, LfuFrequencyCountsOnlyResidentBlocks) {
  make_resident(0, 2, 10);  // only 2 blocks resident
  add_accesses(0, 100);     // counts land on block 0 of chunk 0
  // Block +10 is not resident, so its counts stay out of the LFU key.
  counters_.record_access(addr_of_block(first_block_of_chunk(0) + 10), 999);
  (void)select(EvictionKind::kLfu);
  EXPECT_EQ(mgr_->index().frequency(0), 100u);
}

TEST_F(EvictionTest, ManagerPrefersFullyPopulatedChunks) {
  make_resident(0, 16, 10);   // partial, oldest
  make_resident(1, 32, 500);  // full, newest
  const auto victims = select(EvictionKind::kLru);
  ASSERT_EQ(victims.size(), 32u);
  EXPECT_EQ(chunk_of_block(victims.front()), 1u);
}

TEST_F(EvictionTest, ManagerFallsBackToPartialChunks) {
  make_resident(0, 5, 10);
  const auto victims = select(EvictionKind::kLru);
  EXPECT_EQ(victims.size(), 5u);
}

TEST_F(EvictionTest, ManagerExcludesFaultingChunk) {
  make_resident(0, 32, 10);
  const auto victims = select(EvictionKind::kLru, VictimQuery{0, true});
  EXPECT_TRUE(victims.empty());
}

TEST_F(EvictionTest, ManagerReturnsEmptyWhenNothingResident) {
  EXPECT_TRUE(select(EvictionKind::kLru).empty());
}

TEST_F(EvictionTest, ManagerRejectsTablesItIsNotAttachedTo) {
  make_resident(0, 32, 10);
  EvictionManager detached(EvictionKind::kLru, kLargePageSize);
  EXPECT_THROW((void)detached.select_victims(*table_, counters_, VictimQuery{}), CheckFailure);

  // Attached, but queried with a different counter table.
  (void)select(EvictionKind::kLru);
  AccessCounterTable other(64, 16);
  EXPECT_THROW((void)mgr_->select_victims(*table_, other, VictimQuery{}), CheckFailure);
}

TEST_F(EvictionTest, BlockGranularityEvictsSingleColdestBlock) {
  make_resident(0, 32, 10);
  // Make block 5 of chunk 0 hot, everything else cold.
  for (BlockNum b = 0; b < 32; ++b) {
    counters_.record_access(addr_of_block(b), b == 5 ? 1000u : 10u);
  }
  // Break cold ties by recency: make block 7 least recently used.
  for (BlockNum b = 0; b < 32; ++b) {
    table_->touch(b, AccessType::kRead, b == 7 ? 1u : 100u);
  }
  const auto victims = select(EvictionKind::kLfu, VictimQuery{}, kBasicBlockSize);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims.front(), 7u);
}

}  // namespace
}  // namespace uvmsim
