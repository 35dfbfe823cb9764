// Small per-SM TLB over 4 KB pages: direct-mapped on the page number, which
// is a good approximation of the small per-SM MMU caches at the fidelity we
// need (sequential streams hit, scattered access misses and pays the page
// table walk).
//
// Shootdown by epoch: every entry carries the mapping epoch of its page's
// basic block — the block's eviction count (BlockTable::round_trips), which
// only ever grows. A lookup hits only when page and epoch both match, so an
// eviction stales every cached translation of the block at once, with no
// per-page invalidation. Because the TLB is direct-mapped this is exactly
// the explicit shootdown: a cleared slot and a stale slot both miss, and
// both are overwritten by the next page that maps to them.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace uvmsim {

class Tlb {
 public:
  explicit Tlb(std::uint32_t entries)
      : slots_(entries), pow2_(std::has_single_bit(entries)), mask_(entries - 1) {}

  /// Look up `p` mapped under `epoch`, installing it on miss. Returns true
  /// on hit.
  bool access(PageNum p, std::uint32_t epoch) noexcept {
    Entry& slot = slots_[index(p)];
    if (slot.page == p && slot.epoch == epoch) return true;
    slot.page = p;
    slot.epoch = epoch;
    return false;
  }

 private:
  struct Entry {
    PageNum page = ~PageNum{0};
    std::uint32_t epoch = 0;
  };
  /// Direct-mapped slot; the usual power-of-two capacity (default 64) maps
  /// with a mask instead of a per-access 64-bit division.
  [[nodiscard]] std::size_t index(PageNum p) const noexcept {
    return pow2_ ? (p & mask_) : p % slots_.size();
  }
  std::vector<Entry> slots_;
  bool pow2_;
  std::size_t mask_;
};

}  // namespace uvmsim
