// Peer residency directory for multi-GPU collaborations: tracks, per basic
// block, which GPUs currently hold a resident copy, and models the shared
// NVLink fabric over which a GPU can service a zero-copy access from a
// peer's memory instead of host memory (higher bandwidth, lower per-access
// overhead than PCIe zero-copy).
//
// Scope: the peer path serves *remote accesses* only. Migrations still
// source from host memory — the block's UVM home — which keeps the
// single-GPU driver semantics untouched. Peer copies are read-shared; a
// write migrates the block into the writer's own memory as usual.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "xfer/bandwidth.hpp"

namespace uvmsim {

struct PeerFabricConfig {
  bool enabled = false;
  double bandwidth_gbps = 40.0;  ///< NVLink-class interconnect
  Cycle latency = 120;           ///< peer zero-copy round trip
  std::uint64_t overhead_bytes = 32;  ///< per-128B-transaction wire overhead
};

class PeerDirectory {
 public:
  /// GPUs a holder mask can name; `gpu` must be below this.
  static constexpr std::uint32_t kMaxGpus = 8;

  PeerDirectory(std::uint64_t total_blocks, const PeerFabricConfig& cfg,
                double core_clock_ghz)
      : holders_(total_blocks, 0),
        cfg_(cfg),
        fabric_(cfg.bandwidth_gbps / core_clock_ghz) {}

  void set_resident(BlockNum b, std::uint32_t gpu) {
    holders_[b] |= static_cast<std::uint8_t>(1u << gpu);
  }
  void clear_resident(BlockNum b, std::uint32_t gpu) {
    holders_[b] &= static_cast<std::uint8_t>(~(1u << gpu));
  }

  /// True when some GPU other than `gpu` holds block `b`.
  [[nodiscard]] bool held_by_peer(BlockNum b, std::uint32_t gpu) const {
    return (holders_[b] & ~(1u << gpu)) != 0;
  }

  /// Reserve fabric time for a peer zero-copy access of `count`
  /// transactions; returns the completion cycle (fabric drain + latency).
  Cycle peer_transaction(Cycle now, std::uint32_t count) {
    const std::uint64_t wire =
        static_cast<std::uint64_t>(count) * (kWarpAccessBytes + cfg_.overhead_bytes);
    return fabric_.acquire(now, wire) + cfg_.latency;
  }

  [[nodiscard]] const PeerFabricConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const BandwidthRegulator& fabric() const noexcept { return fabric_; }

 private:
  std::vector<std::uint8_t> holders_;  ///< bitmask of holding GPUs (< kMaxGpus)
  PeerFabricConfig cfg_;
  BandwidthRegulator fabric_;
};

}  // namespace uvmsim
