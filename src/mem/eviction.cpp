#include "mem/eviction.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "check/check.hpp"

namespace uvmsim {

void tree_eviction_subtree_into(ChunkNum c, const BlockTable& table,
                                std::vector<BlockNum>& out) {
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n == 0) return;

  // LRU block among the chunk's resident blocks.
  BlockNum lru = first;
  Cycle lru_ts = std::numeric_limits<Cycle>::max();
  bool found = false;
  for (BlockNum b = first; b < first + n; ++b) {
    if (table.residence(b) == Residence::kDevice && table.block_last_access(b) < lru_ts) {
      lru_ts = table.block_last_access(b);
      lru = b;
      found = true;
    }
  }
  if (!found) return;

  // Grow the subtree around the LRU leaf while it stays fully resident.
  const auto leaf = static_cast<std::uint32_t>(lru - first);
  std::uint32_t best_lo = leaf, best_size = 1;
  for (std::uint32_t size = 2; size <= n; size <<= 1) {
    const std::uint32_t lo = leaf / size * size;
    bool full = true;
    for (std::uint32_t i = lo; i < lo + size && full; ++i) {
      full = i < n && table.residence(first + i) == Residence::kDevice;
    }
    if (!full) break;
    best_lo = lo;
    best_size = size;
  }

  out.reserve(out.size() + best_size);
  for (std::uint32_t i = best_lo; i < best_lo + best_size; ++i) out.push_back(first + i);
}

std::vector<BlockNum> tree_eviction_subtree(ChunkNum c, const BlockTable& table) {
  std::vector<BlockNum> out;
  tree_eviction_subtree_into(c, table, out);
  return out;
}

EvictionManager::EvictionManager(EvictionKind kind, std::uint64_t granularity_bytes,
                                 bool splinter_on_evict)
    : kind_(kind),
      granularity_(granularity_bytes),
      splinter_on_evict_(splinter_on_evict) {}

void EvictionManager::attach_index(BlockTable& table, AccessCounterTable& counters) {
  index_.attach(&table, &counters);
  table.set_eviction_index(&index_);
  counters.set_eviction_index(&index_);
}

ChunkNum EvictionManager::pick_fast(const BlockTable& table,
                                    const AccessCounterTable& /*counters*/,
                                    const VictimQuery& q) const {
  const Cycle cutoff = q.now > q.protect_window ? q.now - q.protect_window : 0;
  const bool protect = q.protect_window != 0;

  if (kind_ != EvictionKind::kLfu) {
    // LRU (and tree, which reuses the LRU chunk pick): the list order IS the
    // LRU key order, so the first list entry of the highest-priority class
    // wins. Busy chunks (last_access >= cutoff) form a suffix of the sorted
    // list, which lets the walk stop as soon as a class is decided.
    ChunkNum first_partial = kNilChunk;
    ChunkNum first_busy_partial = kNilChunk;
    for (ChunkNum c = index_.head(); c != kNilChunk; c = index_.next_of(c)) {
      if (q.has_faulting_chunk && c == q.faulting_chunk) continue;
      const bool busy = protect && table.chunk(c).last_access >= cutoff;
      if (!busy) {
        if (table.chunk_fully_resident(c)) return c;  // minimal full non-busy
        if (first_partial == kNilChunk) first_partial = c;
      } else {
        // Entering the busy suffix finalizes the non-busy classes.
        if (first_partial != kNilChunk) return first_partial;
        if (table.chunk_fully_resident(c)) return c;  // minimal busy full
        if (first_busy_partial == kNilChunk) first_busy_partial = c;
      }
    }
    return first_partial != kNilChunk ? first_partial : first_busy_partial;
  }

  // LFU: one linear sweep over the chunk array with O(1) aggregate lookups,
  // tracking the best key per candidate class. This replays the reference
  // scan's ascending-chunk iteration and strict-< key compare verbatim (so
  // ties resolve to the lowest chunk exactly like the reference), but the
  // per-candidate range_count sweep collapses to the running frequency, and
  // the sequential membership/residency reads are prefetcher-friendly —
  // unlike a pointer-chase through the recency list.
  using Key = std::tuple<std::uint64_t, bool, Cycle>;
  constexpr Key kMaxKey{std::numeric_limits<std::uint64_t>::max(), true,
                        std::numeric_limits<Cycle>::max()};
  ChunkNum best[4] = {kNilChunk, kNilChunk, kNilChunk, kNilChunk};
  Key best_key[4] = {kMaxKey, kMaxKey, kMaxKey, kMaxKey};
  const ChunkNum n = table.num_chunks();
  for (ChunkNum c = 0; c < n; ++c) {
    if (!index_.in_list(c)) continue;
    if (q.has_faulting_chunk && c == q.faulting_chunk) continue;
    const ChunkResidency& cr = table.chunk(c);
    const bool busy = protect && cr.last_access >= cutoff;
    const bool fully = table.chunk_fully_resident(c);
    const int cls = fully ? (busy ? 2 : 0) : (busy ? 3 : 1);
    const Key key{index_.frequency(c), cr.written_ever, cr.last_access};
    if (key < best_key[cls]) {
      best_key[cls] = key;
      best[cls] = c;
    }
  }
  for (const ChunkNum c : best) {
    if (c != kNilChunk) return c;
  }
  return kNilChunk;
}

void EvictionManager::emit_victims(ChunkNum victim, const BlockTable& table,
                                   const AccessCounterTable& counters,
                                   std::vector<BlockNum>& out) const {
  // A coalesced victim chunk is one 2 MB mapping: unless the configuration
  // splinters it first, it leaves device memory atomically — every resident
  // block, regardless of the tree subtree or the 64 KB granularity below.
  // Checked before the tree/granularity paths so neither can emit a partial
  // set out of a huge mapping.
  if (!splinter_on_evict_ && table.chunk_coalesced(victim)) {
    out.reserve(out.size() + table.chunk(victim).resident_blocks);
    table.for_each_resident_block(victim, [&](BlockNum b) { out.push_back(b); });
    return;
  }

  if (kind_ == EvictionKind::kTree) {
    tree_eviction_subtree_into(victim, table, out);
    if (!out.empty()) return;
  }

  if (granularity_ == kLargePageSize || table.chunk(victim).resident_blocks <= 1) {
    out.reserve(out.size() + table.chunk(victim).resident_blocks);
    table.for_each_resident_block(victim, [&](BlockNum b) { out.push_back(b); });
    return;
  }

  // 64 KB eviction granularity: evict only the coldest block of the chunk.
  BlockNum coldest = kNilChunk;
  std::uint64_t coldest_cnt = std::numeric_limits<std::uint64_t>::max();
  Cycle coldest_ts = std::numeric_limits<Cycle>::max();
  table.for_each_resident_block(victim, [&](BlockNum b) {
    const std::uint64_t cnt = counters.range_count(addr_of_block(b), kBasicBlockSize);
    const Cycle ts = table.block_last_access(b);
    if (std::tie(cnt, ts) < std::tie(coldest_cnt, coldest_ts)) {
      coldest_cnt = cnt;
      coldest_ts = ts;
      coldest = b;
    }
  });
  if (coldest != kNilChunk) out.push_back(coldest);
}

std::vector<BlockNum> EvictionManager::select_victims(const BlockTable& table,
                                                      const AccessCounterTable& counters,
                                                      const VictimQuery& q) const {
  std::vector<BlockNum> out;
  select_victims_into(table, counters, q, out);
  return out;
}

void EvictionManager::select_victims_into(const BlockTable& table,
                                          const AccessCounterTable& counters,
                                          const VictimQuery& q,
                                          std::vector<BlockNum>& out) const {
  out.clear();
  UVM_CHECK(index_.attached_to(&table, &counters),
            "EvictionManager: " << to_string(kind_) << " query against a table/counter "
                << "pair the index is not attached to (call attach_index first)");
  const ChunkNum victim = pick_fast(table, counters, q);
  if (victim == kNilChunk) return;
  UVM_CHECK(table.chunk(victim).resident_blocks > 0,
            "EvictionManager: policy " << to_string(kind_) << " picked chunk "
                << victim << " with no resident blocks");
  UVM_CHECK(!q.has_faulting_chunk || victim != q.faulting_chunk,
            "EvictionManager: policy " << to_string(kind_)
                << " picked the faulting chunk " << victim);
  emit_victims(victim, table, counters, out);
}

}  // namespace uvmsim
