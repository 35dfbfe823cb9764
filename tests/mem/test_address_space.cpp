#include "mem/address_space.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(RoundPartialChunk, PowerOfTwoMultiplesOf64K) {
  EXPECT_EQ(round_partial_chunk(0), 0u);
  EXPECT_EQ(round_partial_chunk(1), 64u * 1024);
  EXPECT_EQ(round_partial_chunk(64 * 1024), 64u * 1024);
  EXPECT_EQ(round_partial_chunk(65 * 1024), 128u * 1024);
  EXPECT_EQ(round_partial_chunk(168 * 1024), 256u * 1024);  // paper's example
  EXPECT_EQ(round_partial_chunk(300 * 1024), 512u * 1024);
  EXPECT_EQ(round_partial_chunk(kLargePageSize), kLargePageSize);
  EXPECT_EQ(round_partial_chunk(kLargePageSize - 1), kLargePageSize);
}

TEST(AddressSpace, PaperExampleChunking) {
  // 4 MB + 168 KB -> two 2 MB chunks plus one 256 KB chunk (paper §II-B).
  AddressSpace s;
  const AllocId id = s.allocate("x", 4 * kLargePageSize / 2 + 168 * 1024);
  const Allocation& a = s.alloc(id);
  ASSERT_EQ(a.chunks.size(), 3u);
  EXPECT_EQ(a.chunks[0].num_blocks, 32u);
  EXPECT_EQ(a.chunks[1].num_blocks, 32u);
  EXPECT_EQ(a.chunks[2].num_blocks, 4u);  // 256 KB / 64 KB
  EXPECT_EQ(a.padded_size, 2 * kLargePageSize + 256 * 1024);
}

TEST(AddressSpace, BasesAreLargePageAligned) {
  AddressSpace s;
  s.allocate("a", 100 * 1024);
  const AllocId b = s.allocate("b", 3 * kLargePageSize);
  EXPECT_EQ(s.alloc(b).base % kLargePageSize, 0u);
}

TEST(AddressSpace, FootprintSumsPaddedSizes) {
  AddressSpace s;
  s.allocate("a", 100 * 1024);           // pads to 128 KB
  s.allocate("b", kLargePageSize + 1);   // pads to 2 MB + 64 KB
  EXPECT_EQ(s.footprint_bytes(), 128u * 1024 + kLargePageSize + kBasicBlockSize);
}

TEST(AddressSpace, FindLocatesOwner) {
  AddressSpace s;
  const AllocId a = s.allocate("a", kLargePageSize);
  const AllocId b = s.allocate("b", kLargePageSize);
  EXPECT_EQ(s.find(s.alloc(a).base), a);
  EXPECT_EQ(s.find(s.alloc(a).base + kLargePageSize - 1), a);
  EXPECT_EQ(s.find(s.alloc(b).base), b);
  EXPECT_EQ(s.find(s.alloc(b).end()), std::nullopt);
}

TEST(AddressSpace, FindInPaddingGapReturnsNothing) {
  AddressSpace s;
  s.allocate("a", 128 * 1024);  // padded region ends before the 2 MB boundary
  s.allocate("b", kLargePageSize);
  // The hole between a's padded end and b's 2 MB-aligned base is unmapped.
  EXPECT_EQ(s.find(128 * 1024), std::nullopt);
  EXPECT_EQ(s.find(kLargePageSize - 1), std::nullopt);
}

TEST(AddressSpace, ChunkNumBlocks) {
  AddressSpace s;
  s.allocate("a", kLargePageSize + 256 * 1024);
  EXPECT_EQ(s.chunk_num_blocks(0), 32u);
  EXPECT_EQ(s.chunk_num_blocks(1), 4u);
  EXPECT_EQ(s.chunk_num_blocks(2), 0u);  // unmapped
}

TEST(AddressSpace, TotalBlocksCoversSpan) {
  AddressSpace s;
  s.allocate("a", kLargePageSize);
  s.allocate("b", kLargePageSize);
  EXPECT_EQ(s.total_blocks(), 2 * kBlocksPerLargePage);
}

TEST(AddressSpace, ZeroSizeThrows) {
  AddressSpace s;
  EXPECT_THROW(s.allocate("bad", 0), std::invalid_argument);
}

TEST(AddressSpace, FindBlockMatchesFind) {
  AddressSpace s;
  const AllocId a = s.allocate("a", kLargePageSize);
  EXPECT_EQ(s.find_block(0), a);
  EXPECT_TRUE(s.block_mapped(31));
  EXPECT_FALSE(s.block_mapped(32));
}

TEST(AddressSpace, ManyAllocationsBinarySearch) {
  AddressSpace s;
  std::vector<AllocId> ids;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t size = std::uint64_t{65536} * static_cast<std::uint64_t>(1 + i % 5);
    ids.push_back(s.allocate(std::string("r") + std::to_string(i), size));
  }
  for (const AllocId id : ids) {
    const Allocation& a = s.alloc(id);
    EXPECT_EQ(s.find(a.base), id);
    EXPECT_EQ(s.find(a.base + a.padded_size - 1), id);
  }
}

}  // namespace
}  // namespace uvmsim
