// UvmDriver: the GPU driver / runtime model. It owns the memory-management
// state (block table, device frames, access counters), the migration policy,
// the prefetcher, the eviction manager and the PCIe fabric, and implements
// the far-fault servicing pipeline:
//
//   GPU access -> counters -> residency check
//     device-resident  -> DRAM-timed completion
//     in-flight        -> warp stalls on the pending migration
//     host-resident    -> policy decides:
//         remote  -> zero-copy PCIe transaction, warp continues
//         migrate -> far-fault: warp stalls, fault queued
//
//   Fault engine (serial): drain a batch (45 us handling), expand each
//   demand block through the prefetcher (threshold/first-touch faults only;
//   write-forced migrations move exactly one block), make room by evicting
//   2 MB victims (dirty blocks write back D2H and gate the H2D start), and
//   queue the H2D transfers. Arrivals mark blocks resident and wake warps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "check/audit.hpp"
#include "mem/access_counters.hpp"
#include "mitigation/thrash_throttle.hpp"
#include "multigpu/peer_directory.hpp"
#include "mem/address_space.hpp"
#include "mem/block_table.hpp"
#include "mem/device_memory.hpp"
#include "mem/eviction.hpp"
#include "policy/migration_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"
#include "xfer/bandwidth.hpp"
#include "xfer/pcie.hpp"

namespace uvmsim {

/// Result of a GPU access as seen by the issuing warp.
struct AccessOutcome {
  bool stalled = false;  ///< true: far-fault; the warp waker fires later
  Cycle done = 0;        ///< valid when !stalled: completion cycle
};

class UvmDriver {
 public:
  /// `waker(ctx, warp, ready)` is invoked when a stalled warp's access
  /// completes — a plain function pointer + context, like the event queue's
  /// warp steppers, so a wake costs no type-erased call.
  using WarpWaker = void (*)(void* ctx, WarpId w, Cycle ready);
  /// Optional hook run once per evicted victim set, after the victims left
  /// the block table, for device-side caches that must drop their lines (the
  /// GPU's L2 model). SM TLBs need none: their entries are tagged with the
  /// block's eviction count, which the eviction itself bumps (gpu/tlb.hpp).
  using EvictionHook = void (*)(void* ctx, std::span<const BlockNum> victims);

  /// `shared_host_mem` (optional) is the host-DRAM bandwidth regulator; pass
  /// one shared instance when several drivers (GPUs) contend for the same
  /// host memory, or leave null for a private one.
  UvmDriver(const SimConfig& cfg, const AddressSpace& space, std::uint64_t capacity_bytes,
            EventQueue& queue, SimStats& stats,
            BandwidthRegulator* shared_host_mem = nullptr);

  void set_warp_waker(WarpWaker fn, void* ctx) noexcept {
    waker_ = fn;
    waker_ctx_ = ctx;
  }
  void set_eviction_hook(EvictionHook fn, void* ctx) noexcept {
    eviction_hook_ = fn;
    eviction_hook_ctx_ = ctx;
  }
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  /// Attach this driver (as GPU `gpu_id`) to a multi-GPU peer directory:
  /// residency is published and remote accesses may be served over the peer
  /// fabric when another GPU holds the block.
  void set_peer_directory(PeerDirectory* peers, std::uint32_t gpu_id) {
    peers_ = peers;
    gpu_id_ = gpu_id;
  }

  /// Service one coalesced access issued by warp `w` at cycle `now`.
  [[nodiscard]] AccessOutcome access(WarpId w, VirtAddr addr, AccessType type,
                                     std::uint32_t count, Cycle now);

  /// Classic "copy then execute": migrate every mapped block upfront (the
  /// working set must fit — this is exactly the limitation Unified Memory
  /// removes). `on_done` fires when the last transfer lands.
  void preload_all(std::function<void(Cycle)> on_done);

  // Introspection (tests, harnesses).
  [[nodiscard]] const BlockTable& blocks() const noexcept { return table_; }
  [[nodiscard]] const DeviceMemory& device() const noexcept { return device_; }
  [[nodiscard]] const AccessCounterTable& counters() const noexcept { return counters_; }
  [[nodiscard]] const PcieFabric& pcie() const noexcept { return pcie_; }
  [[nodiscard]] const MigrationPolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] const ThrashThrottle& throttle() const noexcept { return throttle_; }
  [[nodiscard]] std::size_t pending_faults() const noexcept {
    return pending_.size() - pending_head_;
  }
  [[nodiscard]] bool idle() const noexcept {
    return pending_faults() == 0 && !engine_busy_ && in_flight_ == 0;
  }

  /// The invariant auditor, or null when `audit.enabled` is off.
  [[nodiscard]] const InvariantAuditor* auditor() const noexcept { return audit_.get(); }
  /// End-of-run audit pass (unconditional when auditing is enabled); called
  /// by the simulator once the driver drains.
  void audit_final();

 private:
  struct PendingFault {
    BlockNum block;
    bool with_prefetch;
  };
  /// Warps stalled on in-flight blocks: one FIFO per block, threaded through
  /// a pooled node array and recycled through a free list, so a wait and a
  /// wake allocate nothing once the pool covers the peak waiter count.
  static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
  struct WaiterNode {
    WarpId warp;
    std::uint32_t next;  ///< next node of the same FIFO (or free list)
  };
  struct WaiterList {
    std::uint32_t head = kNoWaiter;
    std::uint32_t tail = kNoWaiter;
  };

  [[nodiscard]] PolicyFeatures features(AccessType type, std::uint32_t post_count,
                                        std::uint32_t round_trips, Cycle now) const noexcept;
  /// Advance the fault/eviction activity window feeding PolicyFeatures.
  void roll_feature_window(Cycle now) noexcept;
  [[nodiscard]] AuditScope audit_scope() const noexcept;
  void raise_fault(BlockNum b, WarpId w, bool with_prefetch);
  /// Append `w` to block `b`'s waiter FIFO.
  void add_waiter(BlockNum b, WarpId w);
  void maybe_start_engine();
  void process_batch();
  /// Runtime dispatchers picking the <kTrace, kAudit> instantiation that
  /// matches the attached sinks — once per access / batch / arrival, so the
  /// detached (bench/sweep) configuration runs code with the observation
  /// hooks compiled out entirely.
  void dispatch_service_batch();
  void on_block_arrival(BlockNum b);

  template <bool kTrace, bool kAudit>
  [[nodiscard]] AccessOutcome access_impl(WarpId w, VirtAddr addr, AccessType type,
                                          std::uint32_t count, Cycle now);
  /// Services the faults staged in batch_buf_ (the engine is serial, so one
  /// reused buffer holds the single outstanding batch).
  template <bool kTrace, bool kAudit>
  void service_batch_impl();
  /// Frees one eviction unit of device memory; returns false when nothing is
  /// evictable.
  template <bool kTrace, bool kAudit>
  bool evict_for(ChunkNum faulting_chunk, Cycle now, Cycle& writeback_ready);
  template <bool kTrace, bool kAudit>
  void enqueue_migration(BlockNum b, bool demand, Cycle now, Cycle not_before);
  template <bool kTrace, bool kAudit>
  void on_block_arrival_impl(BlockNum b);

  const SimConfig& cfg_;
  /// cfg_.policy.historic_counters(), resolved once: the answer is fixed for
  /// a run, and the slug-based form costs string compares per access.
  const bool historic_counters_;
  /// cfg_.mem.coalescing, hoisted so the access fast path pays one
  /// predictable branch when huge-page management is off (the default).
  const bool coalescing_;
  const AddressSpace& space_;
  EventQueue& queue_;
  SimStats& stats_;

  BlockTable table_;
  DeviceMemory device_;
  AccessCounterTable counters_;
  EvictionManager eviction_;
  std::unique_ptr<Prefetcher> prefetcher_;
  std::unique_ptr<MigrationPolicy> policy_;
  ThrashThrottle throttle_;
  std::unique_ptr<InvariantAuditor> audit_;  ///< non-null when audit.enabled
  PcieFabric pcie_;
  BandwidthRegulator dram_;
  std::unique_ptr<BandwidthRegulator> owned_host_mem_;  ///< when not shared
  BandwidthRegulator* host_mem_;

  std::vector<MemAdvice> block_advice_;  ///< per-block placement hint
  std::vector<WaiterList> waiters_;      ///< per-block waiter FIFO
  std::vector<WaiterNode> waiter_nodes_;
  std::uint32_t free_waiters_ = kNoWaiter;  ///< free-list head in waiter_nodes_
  /// Fault queue as a vector + head cursor (FIFO; the head range is compacted
  /// away whenever the queue drains, which it does every few batches).
  std::vector<PendingFault> pending_;
  std::size_t pending_head_ = 0;
  std::vector<PendingFault> batch_buf_;  ///< the one in-service batch, reused
  bool engine_busy_ = false;
  std::uint64_t in_flight_ = 0;  ///< H2D block transfers not yet arrived
  /// Demand blocks marked in-flight but still queued (pending_ or an
  /// engine batch) — no transfer enqueued for them yet.
  std::uint64_t queued_fault_blocks_ = 0;

  WarpWaker waker_ = nullptr;
  void* waker_ctx_ = nullptr;
  EvictionHook eviction_hook_ = nullptr;
  void* eviction_hook_ctx_ = nullptr;
  TraceSink* trace_ = nullptr;
  PeerDirectory* peers_ = nullptr;
  std::uint32_t gpu_id_ = 0;

  std::vector<BlockNum> expand_buf_;
  std::vector<BlockNum> victim_buf_;  ///< reused across evict_for calls

  // Windowed activity counters feeding PolicyFeatures (allocation-free):
  // far faults raised and large pages evicted in the current
  // kFeatureWindowCycles window, plus the completed previous window.
  Cycle feat_window_start_ = 0;
  std::uint32_t feat_window_faults_ = 0;
  std::uint32_t feat_prev_faults_ = 0;
  std::uint32_t feat_window_evictions_ = 0;
  std::uint32_t feat_prev_evictions_ = 0;
};

}  // namespace uvmsim
