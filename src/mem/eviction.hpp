// Large-page (2 MB) eviction (paper §II-C and §IV "Access Counter Based
// Page Replacement"). EvictionManager ranks resident chunks by one of:
//
// * LRU — NVIDIA default: order large pages by last migration/access
//   timestamp; oldest goes first. A large page is preferred as a victim only
//   when fully populated (so the prefetch-tree semantics survive eviction);
//   partially populated pages are a fallback to guarantee progress.
// * LFU — this paper: order by aggregate access-counter frequency so cold
//   pages are evicted before hot ones; read-only pages are prioritized
//   (written pages are the expensive ones to lose); ties fall back to LRU
//   order, which makes the policy degrade to LRU under the uniform access
//   frequencies of regular applications.
// * Tree — LRU chunk choice, evicted at prefetch-tree subtree granularity.
#pragma once

#include <vector>

#include "mem/access_counters.hpp"
#include "mem/block_table.hpp"
#include "mem/eviction_index.hpp"
#include "sim/config.hpp"
#include "sim/types.hpp"

namespace uvmsim {

struct VictimQuery {
  ChunkNum faulting_chunk = 0;   ///< chunk being filled; never evicted
  bool has_faulting_chunk = false;
  /// Approximation of the NVIDIA rule that a large page is evictable only
  /// when "not currently addressed by scheduled warps": chunks accessed
  /// within the last `protect_window` cycles are excluded, unless nothing
  /// else is evictable.
  Cycle now = 0;
  Cycle protect_window = 0;
};

/// Tree-based page replacement (Ganguly et al. ISCA'19, discussed in this
/// paper's related work): the victim chunk is chosen by LRU, but instead of
/// displacing the entire 2 MB page, the eviction unit is the largest
/// fully-resident prefetch-tree subtree containing the chunk's least
/// recently used block — mirroring the granularity the tree prefetcher
/// migrates at, and avoiding the full-page collateral damage of 2 MB LRU.
/// Exposed as a pure function for testing.
[[nodiscard]] std::vector<BlockNum> tree_eviction_subtree(ChunkNum c, const BlockTable& table);

/// Allocation-free variant: appends the subtree blocks to `out` (which is
/// not cleared). Used by the eviction hot path.
void tree_eviction_subtree_into(ChunkNum c, const BlockTable& table,
                                std::vector<BlockNum>& out);

/// Selects eviction victims for the driver. Prefers fully-populated chunks
/// per the NVIDIA semantics, falling back to partially-resident chunks (and
/// then to protect-window-busy ones) to guarantee progress.
///
/// Selection runs over the incremental `EvictionIndex`, which `attach_index`
/// wires to one table/counter pair; querying any other pair is a
/// CheckFailure. LRU/tree picks walk a bounded prefix of the recency list;
/// LFU walks the resident chunks once with O(1) frequency lookups. The
/// original full scan survives only as the auditor's oracle,
/// `select_victims_reference` in check/audit.hpp.
class EvictionManager {
 public:
  /// `splinter_on_evict` only matters once chunks can be coalesced
  /// (mem.coalescing, docs/GRANULARITY.md): false evicts a coalesced victim
  /// chunk atomically as one 2 MB unit regardless of the configured
  /// granularity; true lets the caller splinter it and evict at the normal
  /// granularity. With no coalesced chunks both settings are inert, so the
  /// default keeps every existing call site bit-identical.
  EvictionManager(EvictionKind kind, std::uint64_t granularity_bytes,
                  bool splinter_on_evict = false);

  [[nodiscard]] EvictionKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t granularity() const noexcept { return granularity_; }

  /// Wire the incremental index to `table`/`counters` mutation hooks and
  /// rebuild it from their current state. The manager (and thus the index)
  /// must stay at a stable address while attached.
  void attach_index(BlockTable& table, AccessCounterTable& counters);

  [[nodiscard]] const EvictionIndex& index() const noexcept { return index_; }

  /// Victim blocks to evict to make progress, or empty when nothing is
  /// evictable. With 2 MB granularity this is every resident block of the
  /// victim chunk; with 64 KB granularity it is the coldest single block of
  /// the victim chunk.
  [[nodiscard]] std::vector<BlockNum> select_victims(const BlockTable& table,
                                                     const AccessCounterTable& counters,
                                                     const VictimQuery& q) const;

  /// Allocation-free variant for the fault hot path: clears and fills `out`.
  void select_victims_into(const BlockTable& table, const AccessCounterTable& counters,
                           const VictimQuery& q, std::vector<BlockNum>& out) const;

  /// Expand a victim chunk into the blocks to evict (tree subtree, whole
  /// chunk, or coldest block, depending on kind/granularity), appending to
  /// `out`. Public so the reference scan expands its pick the same way.
  void emit_victims(ChunkNum victim, const BlockTable& table,
                    const AccessCounterTable& counters, std::vector<BlockNum>& out) const;

 private:
  /// Victim-chunk pick over the index; kNilChunk when nothing is evictable.
  /// Requires `index_.attached_to(&table, &counters)`.
  [[nodiscard]] ChunkNum pick_fast(const BlockTable& table,
                                   const AccessCounterTable& counters,
                                   const VictimQuery& q) const;

  EvictionIndex index_;
  EvictionKind kind_;
  std::uint64_t granularity_;
  bool splinter_on_evict_;
};

}  // namespace uvmsim
