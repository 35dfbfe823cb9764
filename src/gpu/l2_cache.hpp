// Optional L2 cache model: set-associative, 128 B lines, LRU, write-back.
// Sits between the warp front end and the UVM driver; hits complete at L2
// latency and never reach the memory system. Off by default — the workload
// generators emit post-cache access streams calibrated without it — and
// exposed for fidelity ablations (SimConfig::gpu.l2).
//
// Coherence with migration: when the driver evicts a basic block from device
// memory, the GPU invalidates the block's L2 lines through the driver's
// eviction hook, so stale lines never serve data the device no longer owns.
// Unlike the TLBs (gpu/tlb.hpp) the L2 keeps explicit invalidation: its
// replacement prefers invalid ways, so a stale-but-valid line would change
// victim choice unless every way also checked an epoch.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/types.hpp"

namespace uvmsim {

using L2Config = L2ModelConfig;

/// Latency of an L2 hit in core cycles (GTX 1080 Ti class).
inline constexpr Cycle kL2HitLatency = 30;

class L2Cache {
 public:
  explicit L2Cache(const L2Config& cfg);

  /// Probe one 128 B line; allocates on miss (write-allocate). Returns true
  /// on hit. Dirty victims are counted but not re-injected into the memory
  /// system (their timing contribution is second-order).
  bool access(VirtAddr addr, bool write);

  /// Drop every line of basic block `b` (migration eviction coherence).
  void invalidate_block(BlockNum b);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t dirty_evictions() const noexcept { return dirty_evictions_; }
  [[nodiscard]] std::uint32_t num_sets() const noexcept { return num_sets_; }

 private:
  struct Line {
    std::uint64_t tag = ~std::uint64_t{0};
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  ///< global counter value at last touch
  };

  [[nodiscard]] std::uint64_t line_of(VirtAddr a) const noexcept {
    return a / kWarpAccessBytes;
  }

  std::uint32_t ways_;
  std::uint32_t num_sets_;
  std::vector<Line> lines_;  ///< num_sets_ x ways_
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dirty_evictions_ = 0;
};

}  // namespace uvmsim
