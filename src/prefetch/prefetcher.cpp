#include "prefetch/prefetcher.hpp"

#include <algorithm>
#include <bit>

namespace uvmsim {

namespace {

/// True when `b` is a candidate for prefetching: mapped, host-resident, and
/// not already selected.
bool prefetchable(BlockNum b, const BlockTable& table, const std::vector<BlockNum>& out) {
  if (b >= table.num_blocks()) return false;
  if (table.residence(b) != Residence::kHost) return false;
  return std::find(out.begin(), out.end(), b) == out.end();
}

}  // namespace

void SequentialPrefetcher::expand(BlockNum b, const BlockTable& table,
                                  std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  std::uint32_t taken = 0;
  for (BlockNum nb = b + 1; nb < first + n && taken < degree_; ++nb) {
    if (prefetchable(nb, table, out)) {
      out.push_back(nb);
      ++taken;
    }
  }
}

void RandomPrefetcher::expand(BlockNum b, const BlockTable& table, std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n <= 1) return;
  // One random probe; a miss (occupied/duplicate) simply prefetches nothing,
  // mirroring the low hit rate that makes this baseline weak.
  const BlockNum nb = first + rng_.below(n);
  if (nb != b && prefetchable(nb, table, out)) out.push_back(nb);
}

std::uint32_t TreePrefetcher::expand_mask(std::uint32_t occupied, std::uint32_t leaf,
                                          std::uint32_t num_leaves) noexcept {
  if (num_leaves <= 1) return 0;
  std::uint32_t selected = 0;
  // Subtree sizes 2, 4, ..., num_leaves containing the faulted leaf.
  for (std::uint32_t size = 2; size <= num_leaves; size <<= 1) {
    const std::uint32_t lo = leaf / size * size;
    const std::uint32_t mask =
        (size >= 32 ? 0xffffffffu : ((1u << size) - 1u)) << lo;
    const std::uint32_t present = (occupied | selected) & mask;
    const auto count = static_cast<std::uint32_t>(std::popcount(present));
    if (count * 2 > size) {
      selected |= mask & ~occupied;
    }
  }
  // The faulted leaf is occupied, never prefetched.
  selected &= ~(1u << leaf);
  return selected;
}

void TreePrefetcher::expand(BlockNum b, const BlockTable& table, std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n <= 1) return;

  // Occupancy bitmap: device-resident and in-flight leaves (the table keeps
  // them as one mask per chunk), already-selected leaves, and the demand
  // leaf itself.
  const std::uint32_t mapped = n >= 32 ? ~0u : (1u << n) - 1u;
  std::uint32_t occupied = table.chunk_occupancy(c) & mapped;
  for (BlockNum sel : out) {
    if (chunk_of_block(sel) == c) occupied |= 1u << static_cast<std::uint32_t>(sel - first);
  }
  const auto leaf = static_cast<std::uint32_t>(b - first);
  occupied |= 1u << leaf;

  // Every selected leaf is unoccupied — host-resident and not yet in `out` —
  // and, the leaf count being a power of two, inside the mapped range.
  std::uint32_t mask = expand_mask(occupied, leaf, n);
  while (mask != 0) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    out.push_back(first + i);
  }
}

std::unique_ptr<Prefetcher> make_prefetcher(PrefetcherKind kind, std::uint64_t seed) {
  switch (kind) {
    case PrefetcherKind::kNone: return std::make_unique<NoPrefetcher>();
    case PrefetcherKind::kSequential: return std::make_unique<SequentialPrefetcher>();
    case PrefetcherKind::kRandom: return std::make_unique<RandomPrefetcher>(seed);
    case PrefetcherKind::kTree: return std::make_unique<TreePrefetcher>();
  }
  return nullptr;
}

}  // namespace uvmsim
