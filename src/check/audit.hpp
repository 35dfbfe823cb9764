// InvariantAuditor — the opt-in expensive tier (UVM_AUDIT) of the invariant
// tooling. At a configurable event interval (and once more at end of run) it
// cross-validates whole-structure consistency between the page table, device
// memory, access counters, eviction machinery, transfer engine and event
// queue:
//
//   * residency conservation — per-chunk resident counts and occupancy masks
//     match a per-block scan; device used == resident + in-flight;
//     resident + free == capacity
//   * mapping granularity — a coalesced 2 MB chunk is fully resident and was
//     never written; the O(1) coalesced-chunk counter matches a scan; the
//     coalesce/splinter counters obey the conservation law
//     (docs/GRANULARITY.md)
//   * eviction membership — the victim-selection view of 2 MB large pages
//     exactly matches block-level residency (and a probe pick returns only
//     resident blocks of one chunk)
//   * access counters — clamp at saturation (count < 2^27, trips < 2^5) and
//     historic-mode monotonicity across halvings
//   * dynamic threshold — Equation 1 bounds: td >= 1 always; the
//     oversubscribed branch equals ts * (r + 1) * p
//   * PCIe byte conservation — DMA bytes accepted by each channel equal the
//     stats bookkeeping; channel totals equal DMA + zero-copy traffic
//   * clock/stats monotonicity — sim time and cumulative counters never
//     run backwards between audit passes
//
// Violations are collected into an AuditReport, surfaced through SimStats
// (audit_passes / audit_violations / last_violation), and — in the default
// fail-fast mode — thrown as CheckFailure so run_batch() fails the affected
// run, error-isolated from the rest of the batch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "policy/migration_policy.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace uvmsim {

class AccessCounterTable;
class BlockTable;
class DeviceMemory;
class EventQueue;
class EvictionManager;
class PcieFabric;
struct VictimQuery;

/// Read-only view of the structures one audit pass cross-validates. Any
/// pointer may be null; the corresponding checks are skipped (tests audit
/// hand-built partial scopes, the driver supplies everything). A non-null
/// `eviction` must have its index attached to `table` and `counters`.
struct AuditScope {
  const BlockTable* table = nullptr;
  const DeviceMemory* device = nullptr;
  const AccessCounterTable* counters = nullptr;
  const EvictionManager* eviction = nullptr;
  const PcieFabric* pcie = nullptr;
  const EventQueue* queue = nullptr;
  const SimStats* stats = nullptr;
  const MigrationPolicy* policy = nullptr;
  const PolicyConfig* policy_cfg = nullptr;
  PolicyFeatures policy_features;  ///< occupancy/activity snapshot (counters zeroed)
  std::uint64_t in_flight_blocks = 0;  ///< H2D migrations enqueued, not landed
  /// Faulted blocks already marked in-flight in the table but still queued in
  /// the fault engine (no transfer, no device frame yet).
  std::uint64_t queued_fault_blocks = 0;
  bool historic_counters = false;      ///< counters survive migration (paper)
  /// The driver's eviction protect window, so the victim-parity check probes
  /// the same busy/non-busy classification the hot path uses.
  Cycle protect_window = 0;
};

/// Outcome of one full audit pass.
struct AuditReport {
  std::uint64_t checks = 0;             ///< individual assertions evaluated
  std::vector<std::string> violations;  ///< one formatted entry per failure
  [[nodiscard]] bool clean() const noexcept { return violations.empty(); }
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(const AuditConfig& cfg);

  /// Hot-path hook: counts events and runs a full pass every
  /// cfg.interval_events. On violation the pass updates `stats` and, in
  /// fail-fast mode, throws CheckFailure (failing the run, not the batch).
  void on_event(const AuditScope& scope, SimStats& stats);

  /// Unconditional pass with stats/fail-fast semantics (end-of-run hook).
  void finalize(const AuditScope& scope, SimStats& stats);

  /// Run one full pass and return every violation without throwing — the
  /// fault-injection testing surface.
  [[nodiscard]] AuditReport audit_now(const AuditScope& scope);

  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
  [[nodiscard]] const std::string& last_violation() const noexcept {
    return last_violation_;
  }

 private:
  void run_pass(const AuditScope& scope, SimStats& stats);

  void check_residency(const AuditScope& s, AuditReport& r) const;
  void check_granularity(const AuditScope& s, AuditReport& r) const;
  void check_eviction_membership(const AuditScope& s, AuditReport& r) const;
  void check_eviction_index(const AuditScope& s, AuditReport& r) const;
  void check_counters(const AuditScope& s, AuditReport& r);
  void check_threshold(const AuditScope& s, AuditReport& r) const;
  void check_pcie(const AuditScope& s, AuditReport& r) const;
  void check_monotonicity(const AuditScope& s, AuditReport& r);

  AuditConfig cfg_;
  std::uint64_t events_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t violations_ = 0;
  std::string last_violation_;

  // Cross-pass monotonicity state.
  std::vector<std::uint32_t> prev_counts_;
  std::uint64_t prev_halvings_ = 0;
  bool has_counter_snapshot_ = false;
  Cycle last_now_ = 0;
  std::uint64_t prev_total_accesses_ = 0;
  std::uint64_t prev_far_faults_ = 0;
  std::uint64_t prev_evictions_ = 0;
  std::uint64_t prev_bytes_h2d_ = 0;
  std::uint64_t prev_bytes_d2h_ = 0;
};

/// Reference LFU key of chunk `c`: the access-counter count summed over its
/// device-resident blocks — the aggregate EvictionIndex maintains
/// incrementally.
[[nodiscard]] std::uint64_t reference_chunk_frequency(ChunkNum c, const BlockTable& table,
                                                      const AccessCounterTable& counters);

/// Reference victim scan: the blocks `mgr` must select for `q`, found by an
/// O(chunks) scan that classifies every resident chunk (full / partial,
/// busy or not) and ranks the first non-empty class by `mgr.kind()` — LRU
/// key for LRU and tree, (frequency, written, LRU key) for LFU — in
/// ascending chunk order with a strict-< compare. The pick is expanded by
/// `mgr.emit_victims`, so only the chunk choice is independent. Needs no
/// index: it reads `table` and `counters` directly.
[[nodiscard]] std::vector<BlockNum> select_victims_reference(const EvictionManager& mgr,
                                                             const BlockTable& table,
                                                             const AccessCounterTable& counters,
                                                             const VictimQuery& q);

}  // namespace uvmsim
