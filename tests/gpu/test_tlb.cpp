#include "gpu/tlb.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace uvmsim {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb t(16);
  EXPECT_FALSE(t.access(5, 0));
  EXPECT_TRUE(t.access(5, 0));
}

TEST(Tlb, DirectMappedConflict) {
  Tlb t(16);
  EXPECT_FALSE(t.access(3, 0));
  EXPECT_FALSE(t.access(3 + 16, 0));  // same slot, evicts
  EXPECT_FALSE(t.access(3, 0));       // miss again
}

TEST(Tlb, DistinctSlotsCoexist) {
  Tlb t(16);
  for (PageNum p = 0; p < 16; ++p) EXPECT_FALSE(t.access(p, 0));
  for (PageNum p = 0; p < 16; ++p) EXPECT_TRUE(t.access(p, 0));
}

// Evicting a block invalidates its pages by bumping the block's epoch; an
// entry installed under an older epoch no longer hits.
TEST(Tlb, InvalidateRemovesEntry) {
  Tlb t(16);
  t.access(7, 0);
  EXPECT_FALSE(t.access(7, 1));  // the block was evicted since the install
  EXPECT_TRUE(t.access(7, 1));   // the miss re-installed it under the new epoch
}

TEST(Tlb, InvalidateOtherPageIsNoop) {
  Tlb t(16);
  for (PageNum p = 0; p < 16; ++p) t.access(p, 0);
  EXPECT_FALSE(t.access(7, 1));
  for (PageNum p = 0; p < 16; ++p) EXPECT_TRUE(t.access(p, p == 7 ? 1 : 0)) << p;
}

// One epoch bump stales every page of the block: a TLB holding only that
// block's pages is emptied.
TEST(Tlb, FlushEmptiesEverything) {
  Tlb t(kPagesPerBlock);
  for (PageNum p = 0; p < kPagesPerBlock; ++p) t.access(p, 0);
  for (PageNum p = 0; p < kPagesPerBlock; ++p) EXPECT_FALSE(t.access(p, 1)) << p;
}

/// The explicit shootdown the epochs replace: on eviction, every SM TLB
/// dropped each of the block's pages that it still held.
class ShootdownTlb {
 public:
  explicit ShootdownTlb(std::uint32_t entries) : slots_(entries, kEmpty) {}
  bool access(PageNum p) {
    PageNum& slot = slots_[p % slots_.size()];
    if (slot == p) return true;
    slot = p;
    return false;
  }
  void invalidate(PageNum p) {
    PageNum& slot = slots_[p % slots_.size()];
    if (slot == p) slot = kEmpty;
  }

 private:
  static constexpr PageNum kEmpty = ~PageNum{0};
  std::vector<PageNum> slots_;
};

TEST(Tlb, EpochMatchesPerPageShootdown) {
  constexpr BlockNum kBlocks = 12;
  constexpr PageNum kPages = kBlocks * kPagesPerBlock;
  for (const std::uint32_t entries : {64u, 48u, 8u}) {
    SCOPED_TRACE(entries);
    Tlb epoch_tlb(entries);
    ShootdownTlb ref(entries);
    ShootdownTlb no_shootdown(entries);  // proves the evictions matter
    std::vector<std::uint32_t> epoch(kBlocks, 0);
    Rng rng(0x71B0 + entries);
    PageNum p = 0;
    std::uint64_t hits = 0;
    std::uint64_t shot_down = 0;  // lookups the shootdown turned into misses
    for (int op = 0; op < 200000; ++op) {
      if (rng.chance(0.02)) {
        const BlockNum b = rng.below(kBlocks);
        for (PageNum q = first_page_of_block(b); q < first_page_of_block(b + 1); ++q) {
          ref.invalidate(q);
        }
        ++epoch[b];
        continue;
      }
      // Repeats and sequential steps (hits once installed), with scattered
      // jumps (mostly misses, some revisits).
      const double r = rng.uniform();
      if (r < 0.3) {
        p = (p + 1) % kPages;
      } else if (r >= 0.6) {
        p = rng.below(kPages);
      }
      const bool want = ref.access(p);
      const bool got = epoch_tlb.access(p, epoch[block_of_page(p)]);
      ASSERT_EQ(got, want) << "op " << op << " page " << p;
      if (got) ++hits;
      if (no_shootdown.access(p) && !want) ++shot_down;
    }
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(shot_down, 100u);
  }
}

}  // namespace
}  // namespace uvmsim
