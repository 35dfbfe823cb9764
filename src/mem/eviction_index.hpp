// Incrementally-maintained eviction index (the hot-path replacement for the
// full chunk-table scan in EvictionManager::select_victims).
//
// Two structures, both updated in O(1)-amortized from the block-table and
// access-counter mutation hooks instead of being recomputed per fault:
//
// * An intrusive doubly-linked list over the chunks that currently hold at
//   least one device-resident block, kept sorted ascending by the LRU key
//   (last_access, chunk). Touches carry a monotone `now`, so a reposition is
//   an unlink plus a short walk back from the tail (past same-cycle ties
//   only); residency arrivals insert at their sorted position the same way.
//   The sort order makes LRU victim selection a bounded prefix walk, and the
//   protect-window "busy" region a suffix of the list.
// * Per-chunk running frequency aggregates: the sum of access-counter count
//   fields over the chunk's device-resident blocks — exactly
//   reference_chunk_frequency (check/audit.hpp), maintained by counter
//   increment deltas and residency transitions instead of a per-candidate
//   range_count sweep.
//   Global counter halvings rescale every register at once, so they mark the
//   aggregates stale; the next read rebuilds them in one pass (halvings are
//   saturation events, i.e. rare).
//
// The index attaches to exactly one (BlockTable, AccessCounterTable) pair,
// and EvictionManager refuses queries against any other. The reference scan
// in check/audit.hpp is the oracle the InvariantAuditor checks this index
// against under --audit.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace uvmsim {

class AccessCounterTable;
class BlockTable;

inline constexpr ChunkNum kNilChunk = ~ChunkNum{0};

class EvictionIndex {
 public:
  /// Bind to a table/counter pair and rebuild from their current state.
  /// The index must outlive neither structure; both get mutation hooks
  /// pointed at this object by EvictionManager::attach_index.
  void attach(const BlockTable* table, const AccessCounterTable* counters);

  [[nodiscard]] bool attached_to(const BlockTable* table,
                                 const AccessCounterTable* counters) const noexcept {
    return table_ != nullptr && table_ == table && counters_ == counters;
  }

  // --- mutation hooks (called by BlockTable / AccessCounterTable) ---------

  /// A block access stamped chunk recency: reposition the chunk in the list.
  /// Inline — this runs once per GPU access, and after the dense key shadow
  /// it needs no block-table state at all: BlockTable::touch stamped
  /// chunk last_access = now before invoking the hook, so `now` IS the new
  /// key. The reposition (uncommon: re-touching the MRU chunk or a
  /// stay-in-place neighbour needs no move) stays out of line.
  void on_touch(BlockNum b, Cycle now) {
    const ChunkNum c = chunk_of_block(b);
    if (in_list_[c] == 0) return;  // no resident blocks: not a candidate
    key_[c] = now;
    const ChunkNum nx = next_[c];
    const ChunkNum pv = prev_[c];
    const bool next_ok =
        nx == kNilChunk || key_[nx] > now || (key_[nx] == now && nx > c);
    const bool prev_ok =
        pv == kNilChunk || key_[pv] < now || (key_[pv] == now && pv < c);
    if (next_ok && prev_ok) return;
    // Touches carry the current cycle, the maximal key, so a repositioned
    // chunk almost always lands at the tail; splice it there directly when
    // the tail's key sorts before (now, c) — the interleaved-warp steady
    // state, roughly half of all touches. The guard is false when c is the
    // tail itself (key_[c] == now already), so nx is a real chunk below.
    const ChunkNum t = tail_;
    if (key_[t] < now || (key_[t] == now && t < c)) {
      if (pv != kNilChunk)
        next_[pv] = nx;
      else
        head_ = nx;
      prev_[nx] = pv;  // nx != kNilChunk because c != tail
      prev_[c] = t;
      next_[c] = kNilChunk;
      next_[t] = c;
      tail_ = c;
      return;
    }
    unlink(c);
    insert_sorted(c);
  }
  /// A block turned device-resident: enter the list if first in its chunk,
  /// and absorb the block's current counter sum into the chunk aggregate.
  void on_resident(BlockNum b);
  /// A device-resident block was evicted: shed its counter sum, and leave
  /// the list when the chunk empties.
  void on_evicted(BlockNum b);
  /// One counter unit's count field changed (increment or reset).
  /// Per-access like on_touch; defined inline at the bottom of
  /// block_table.hpp (it reads block residency, and this header cannot
  /// include block_table.hpp — block_table.hpp includes us).
  void on_unit_count(std::uint64_t unit, std::uint32_t old_count,
                     std::uint32_t new_count);
  /// Every counter register was rescaled (global halving): the running
  /// aggregates are stale until the next rebuild.
  void on_rescaled() noexcept { freq_stale_ = true; }

  // --- queries (EvictionManager fast path, InvariantAuditor) --------------

  [[nodiscard]] ChunkNum head() const noexcept { return head_; }
  [[nodiscard]] ChunkNum tail() const noexcept { return tail_; }
  [[nodiscard]] ChunkNum next_of(ChunkNum c) const { return next_[c]; }
  [[nodiscard]] ChunkNum prev_of(ChunkNum c) const { return prev_[c]; }
  [[nodiscard]] bool in_list(ChunkNum c) const { return in_list_[c] != 0; }
  /// Chunks currently holding >= 1 resident block (list length).
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Running LFU aggregate for a listed chunk; rebuilds first when a global
  /// halving left the aggregates stale (hence not const-free).
  [[nodiscard]] std::uint64_t frequency(ChunkNum c) const {
    if (freq_stale_) rebuild_frequencies();
    return freq_[c];
  }
  /// True while a global halving has invalidated the aggregates (exposed so
  /// the auditor can distinguish "stale by design" from drift).
  [[nodiscard]] bool frequencies_stale() const noexcept { return freq_stale_; }

 private:
  [[nodiscard]] std::uint64_t block_count_sum(BlockNum b) const;
  void insert_sorted(ChunkNum c);
  void unlink(ChunkNum c);
  void rebuild_frequencies() const;

  const BlockTable* table_ = nullptr;
  const AccessCounterTable* counters_ = nullptr;
  std::uint32_t units_per_block_shift_ = 0;  ///< log2(units per 64 KB block)

  std::vector<ChunkNum> prev_;
  std::vector<ChunkNum> next_;
  std::vector<std::uint8_t> in_list_;
  /// Dense shadow of chunk(c).last_access for listed chunks: the reposition
  /// comparisons in on_touch/insert_sorted run per access, and a flat Cycle
  /// array avoids striding through the wider ChunkResidency records.
  std::vector<Cycle> key_;
  ChunkNum head_ = kNilChunk;
  ChunkNum tail_ = kNilChunk;
  std::uint64_t size_ = 0;

  // Aggregates are logically part of the index's derived state; a stale
  // rebuild from a const query must not change observable ordering, so the
  // lazily-refreshed storage is mutable.
  mutable std::vector<std::uint64_t> freq_;
  mutable bool freq_stale_ = false;
};

}  // namespace uvmsim
