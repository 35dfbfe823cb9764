// Simulator configuration: Table I of the paper, expressed as one value
// struct with validated invariants. Every experiment harness starts from
// SimConfig{} (the bold defaults in Table I) and overrides what it sweeps.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/types.hpp"

namespace uvmsim {

/// Page replacement policy for 2 MB large-page eviction.
enum class EvictionKind : std::uint8_t {
  kLru,   ///< migration/access-timestamp LRU (NVIDIA default)
  kLfu,   ///< access-counter-driven LFU with read-only priority (this paper)
  kTree,  ///< tree-based replacement (Ganguly et al. ISCA'19, related work):
          ///< LRU chunk selection, but eviction of the largest fully-resident
          ///< subtree around its LRU block instead of the whole large page
};

/// Hardware prefetcher attached to the fault handler.
enum class PrefetcherKind : std::uint8_t {
  kNone,
  kSequential,  ///< next-block neighbourhood (Zheng et al. style)
  kRandom,      ///< random block within the faulting 2 MB chunk
  kTree         ///< CUDA tree-based neighbourhood prefetcher (default)
};

/// Migration policy evaluated by the paper.
enum class PolicyKind : std::uint8_t {
  kFirstTouch,      ///< Baseline / "Disabled": migrate on first touch
  kStaticAlways,    ///< "Always": static threshold from the start
  kStaticOversub,   ///< "Oversub": static threshold only after oversubscription
  kAdaptive         ///< this paper: dynamic threshold (Equation 1)
};

[[nodiscard]] std::string to_string(EvictionKind k);
[[nodiscard]] std::string to_string(PrefetcherKind k);
[[nodiscard]] std::string to_string(PolicyKind k);

/// Short machine-friendly policy identifier used by every serialized report
/// (run CSV/JSON, artifact filenames): baseline | always | oversub |
/// adaptive. An out-of-domain enum value throws CheckFailure instead of
/// silently serializing as "?".
[[nodiscard]] const char* policy_slug(PolicyKind k);

/// Optional L2 cache model (off by default: the workload generators emit
/// post-cache streams; enable for fidelity ablations).
struct L2ModelConfig {
  bool enabled = false;
  std::uint64_t size_bytes = 2883584;  ///< 2.75 MB (GTX 1080 Ti)
  std::uint32_t ways = 16;
};

/// GPU core and shader configuration (GeForce GTX 1080 Ti, Pascal-like).
struct GpuConfig {
  std::uint32_t num_sms = 28;
  std::uint32_t warps_per_sm = 4;       ///< concurrent warp contexts modelled per SM
  double core_clock_ghz = 1.481;        ///< 1481 MHz
  Cycle dram_latency = 100;             ///< device DRAM access latency [2]
  double dram_bandwidth_gbps = 484.0;   ///< GTX 1080 Ti peak
  Cycle page_walk_latency = 100;        ///< page table walk on TLB miss
  std::uint32_t tlb_entries_per_sm = 64;
  L2ModelConfig l2;
};

/// CPU-GPU interconnect configuration (PCI-e 3.0 16x).
struct InterconnectConfig {
  double pcie_bandwidth_gbps = 15.75;   ///< 8 GT/s x16, 128b/130b encoded
  /// Host DRAM bandwidth shared by migrations, writebacks and zero-copy
  /// traffic. Irrelevant for one GPU (PCIe binds first) but the contended
  /// resource when several GPUs collaborate over the same host memory.
  double host_memory_bandwidth_gbps = 60.0;
  Cycle pcie_latency = 100;             ///< per-transfer latency in core cycles
  Cycle remote_access_latency = 200;    ///< zero-copy load/store round trip
  /// Per-transaction wire overhead of zero-copy accesses (TLP headers,
  /// read-completion round trips): 128 B remote reads reach well under half
  /// of the bulk-DMA bandwidth on PCIe 3.0, which this models.
  std::uint64_t remote_overhead_bytes = 160;
  double far_fault_latency_us = 45.0;   ///< fault handling (page walk + mgmt)
  std::uint32_t fault_batch_max = 256;  ///< fault-buffer entries drained per batch
  /// How long the fault engine lets the fault buffer fill before draining a
  /// batch; amortizes the 45 us handling over trickling faults.
  Cycle fault_batch_window = 3000;
};

/// Memory-management configuration (the knobs the paper sweeps).
struct MemConfig {
  std::uint64_t device_capacity_bytes = 64ull << 20;  ///< usable device memory
  EvictionKind eviction = EvictionKind::kLru;
  PrefetcherKind prefetcher = PrefetcherKind::kTree;
  std::uint64_t eviction_granularity = kLargePageSize;
  /// Large pages accessed within this many cycles are not eviction
  /// candidates while anything colder exists (the "not currently addressed
  /// by scheduled warps" rule).
  Cycle eviction_protect_cycles = 65536;
  /// Access-counter granularity; 64 KB (paper's optimization) or 4 KB.
  std::uint64_t counter_granularity = kBasicBlockSize;
  /// Width of the access-count field in each 32-bit counter register; the
  /// round-trip field gets the remaining 32 - counter_count_bits bits.
  /// Default 27/5 is the hardware split. Smaller widths saturate (and thus
  /// halve the whole table) earlier — the differential fuzzer shrinks this
  /// so halving bugs reproduce in a handful of accesses.
  std::uint32_t counter_count_bits = 27;
  /// When > 0, device capacity is derived from the workload footprint as
  /// footprint / oversubscription (e.g. 1.25 => working set is 125 % of the
  /// device memory), overriding device_capacity_bytes. This mirrors the
  /// paper's methodology of shrinking free space rather than scaling inputs.
  double oversubscription = 0.0;
  /// Mosaic-style huge-page management (docs/GRANULARITY.md): coalesce a
  /// fully-resident, never-written chunk into one 2 MB mapping; splinter it
  /// back on write sharing or eviction. Off by default — the paper's fixed
  /// 64 KB/2 MB geometry — and off leaves every code path bit-identical.
  bool coalescing = false;
  /// When a victim chunk is coalesced: true splinters it first and evicts at
  /// the configured eviction granularity; false (default) evicts the whole
  /// chunk atomically, preserving the huge mapping until it leaves device
  /// memory. No effect unless coalescing is enabled.
  bool splinter_on_evict = false;
};

/// Migration-policy configuration.
struct PolicyConfig {
  PolicyKind policy = PolicyKind::kFirstTouch;
  /// Registry slug selecting a non-paper policy (policy/policy_registry.hpp).
  /// Empty (the default) means `policy` picks one of the four paper schemes;
  /// non-empty overrides the enum and is looked up in the registry.
  std::string slug;
  std::uint32_t static_threshold = 8;        ///< ts in {8, 16, 32}
  std::uint64_t migration_penalty = 8;       ///< p in {2, 4, 8, 1048576}
  /// Volta semantics for the *static* threshold schemes: a write to a
  /// host-resident page migrates it immediately, irrespective of frequency.
  bool write_triggers_migration = true;
  /// The adaptive scheme subsumes writes into the dynamic threshold so that
  /// highly-thrashed write pages can stay host-pinned (zero-copy writes);
  /// set true to force Volta write semantics there as well (ablation knob).
  bool adaptive_write_migrates = false;
  /// Counter maintenance semantics (paper §IV "Access Counter Maintenance"):
  /// the Volta hardware counters track only remote accesses and are cleared
  /// when the page migrates, while the paper's framework keeps a historic
  /// count of both local and remote accesses that survives migration.
  /// "Always" models the stock Volta scheme; "Oversub" and "Adaptive" are
  /// framework schemes and use the historic semantics (this combination is
  /// the only one consistent with Fig 6, where Always and Oversub diverge
  /// sharply on ra). Knob exists for ablation.
  bool historic_counters_override = false;  ///< force historic for all policies

  /// The slug every serialized report (CSV/JSON, artifact filenames) and the
  /// policy registry key on: the explicit `slug` when set, otherwise the
  /// paper scheme's canonical slug (baseline | always | oversub | adaptive).
  [[nodiscard]] std::string resolved_slug() const {
    return slug.empty() ? std::string(policy_slug(policy)) : slug;
  }

  /// True when this policy keeps historic (local+remote, never reset)
  /// counters; false for the Volta remote-only semantics. The stock Volta
  /// semantics exist to model Baseline and Always; every framework scheme —
  /// including all registry (non-paper) policies — uses historic counters.
  [[nodiscard]] bool historic_counters() const noexcept {
    if (historic_counters_override) return true;
    if (!slug.empty()) return slug != "baseline" && slug != "always";
    return policy == PolicyKind::kAdaptive || policy == PolicyKind::kStaticOversub;
  }
};

/// nvidia-uvm style thrashing mitigation (state of practice, paper §I).
/// Off by default — not part of the paper's framework; used for ablations.
struct ThrashThrottleConfig {
  bool enabled = false;
  /// Residency round trips (evictions) after which a block counts as
  /// thrashing and its next migration attempt pins it to host instead.
  std::uint32_t detect_faults = 3;
  /// Once detected, the block is host-pinned for this long; afterwards
  /// migration is retried (and typically re-pins a still-thrashing block).
  Cycle pin_cooldown = 2000000;
};

/// Invariant-audit configuration (check/audit.hpp). The cheap UVM_CHECK tier
/// is always on; this enables the expensive whole-structure cross-validation
/// tier (UVM_AUDIT) at a configurable event interval.
struct AuditConfig {
  bool enabled = false;
  /// Driver events (accesses, arrivals, fault batches) between full passes.
  std::uint64_t interval_events = 4096;
  /// Throw CheckFailure on the first violation so run_batch() fails the
  /// affected run; false collects counts only (stats still report them).
  bool fail_fast = true;
};

/// Top-level simulator configuration (Table I).
struct SimConfig {
  GpuConfig gpu;
  InterconnectConfig xfer;
  MemConfig mem;
  PolicyConfig policy;
  ThrashThrottleConfig mitigation;
  AuditConfig audit;
  std::uint64_t rng_seed = 0x5eedc0ffee;
  bool collect_traces = false;   ///< enable Fig 2/3 style tracing hooks
  /// Host-side kernel launch overhead between consecutive launches (real
  /// systems: ~5-10 us). Default 0: the paper's metric is kernel time, and
  /// the benchmark calibration excludes launch gaps. Matters for workloads
  /// with hundreds of launches (nw, road-input bfs).
  double kernel_launch_overhead_us = 0.0;
  /// Classic pre-UVM execution model (paper §II-A): copy every managed
  /// allocation to the device upfront, then run. Requires the working set
  /// to fit — refusing to oversubscribe is precisely its limitation.
  bool copy_then_execute = false;

  /// Far-fault handling latency converted to core cycles.
  [[nodiscard]] Cycle far_fault_cycles() const noexcept;
  /// Kernel launch overhead converted to core cycles.
  [[nodiscard]] Cycle launch_overhead_cycles() const noexcept;
  /// PCIe bytes moved per core cycle (one direction).
  [[nodiscard]] double pcie_bytes_per_cycle() const noexcept;
  /// Device DRAM bytes served per core cycle.
  [[nodiscard]] double dram_bytes_per_cycle() const noexcept;
  /// Total concurrent warp contexts.
  [[nodiscard]] std::uint32_t total_warps() const noexcept {
    return gpu.num_sms * gpu.warps_per_sm;
  }

  /// Throws std::invalid_argument when a field is out of its legal domain
  /// (every double field must also be finite).
  void validate() const;
};

/// The paper's configuration for one scheme (§VI): Baseline keeps the stock
/// LRU replacement, every counter-based scheme uses the access-counter LFU.
[[nodiscard]] SimConfig scheme_config(PolicyKind policy);

/// Human-readable multi-line rendering of the configuration (Table I shape).
[[nodiscard]] std::string describe(const SimConfig& cfg);

}  // namespace uvmsim
