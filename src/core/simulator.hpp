// Simulator facade: builds the workload's address space, derives the device
// capacity (optionally from an oversubscription factor), wires driver + GPU,
// plays the kernel launch sequence to completion, and returns the results.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/allocation_profile.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

namespace obs {
class MetricsRecorder;
}  // namespace obs

struct KernelStat {
  std::string name;
  Cycle start = 0;
  Cycle end = 0;
  [[nodiscard]] Cycle duration() const noexcept { return end - start; }
};

struct RunResult {
  SimStats stats;
  std::vector<KernelStat> kernels;
  std::uint64_t footprint_bytes = 0;
  std::uint64_t capacity_bytes = 0;
  /// Upfront bulk-transfer time (copy-then-execute mode only).
  Cycle preload_cycles = 0;
  /// Per-allocation hot/cold classification derived from the driver's
  /// access counters at the end of the run (paper §IV).
  std::vector<AllocationProfile> allocations;

  /// Total kernel execution time — the paper's runtime metric.
  [[nodiscard]] Cycle kernel_cycles() const noexcept { return stats.kernel_cycles; }
  [[nodiscard]] double kernel_ms(double core_clock_ghz) const noexcept {
    return static_cast<double>(stats.kernel_cycles) / (core_clock_ghz * 1e6);
  }
  [[nodiscard]] double oversubscription() const noexcept {
    return capacity_bytes == 0
               ? 0.0
               : static_cast<double>(footprint_bytes) / static_cast<double>(capacity_bytes);
  }
};

/// Per-run observation options, passed to Simulator::run() by value instead
/// of being stashed on the Simulator (the old set_* mutators made the sink
/// lifetimes depend on the Simulator object's — fragile once runs execute on
/// pool threads). Everything is optional; the default observes nothing.
struct RunOptions {
  /// Access tracing (Fig 2/3 harnesses). Must outlive the run() call.
  TraceSink* trace_sink = nullptr;
  /// Registry-complete time series (obs/metrics_recorder.hpp): every
  /// registered metric is snapshotted at absolute multiples of
  /// `metrics_interval` (cycle 0, k, 2k, ...). Because samples sit on that
  /// shared clock, the series of every entry in a run_batch() align
  /// row-by-row. Sampling is side-effect free: the run's SimStats are
  /// bit-identical to an unobserved run's. Must outlive the run() call.
  obs::MetricsRecorder* metrics = nullptr;
  Cycle metrics_interval = 100000;
  /// Invoked after the workload builds its allocations — the place to attach
  /// cudaMemAdvise-style hints (oracle experiments).
  std::function<void(AddressSpace&)> advice_hook;
};

class Simulator {
 public:
  explicit Simulator(SimConfig cfg);

  /// Run `workload` to completion and return the collected results.
  [[nodiscard]] RunResult run(Workload& workload, const RunOptions& opts);
  [[nodiscard]] RunResult run(Workload& workload) { return run(workload, RunOptions{}); }

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

 private:
  SimConfig cfg_;
};

/// Device capacity a run will use: SimConfig::mem.device_capacity_bytes, or —
/// when mem.oversubscription > 0 — footprint / oversubscription rounded down
/// to a 2 MB multiple (floored at one large page). Shared by Simulator::run
/// and the differential reference model (check/refmodel.hpp) so both derive
/// the same capacity from the same inputs.
[[nodiscard]] std::uint64_t derived_capacity_bytes(const SimConfig& cfg,
                                                   std::uint64_t footprint_bytes);

/// Convenience: build + run a named workload at a given oversubscription.
/// `oversub` <= 0 keeps the configured capacity; otherwise capacity =
/// footprint / oversub. Thin wrapper over run_request() (sim/runner.hpp),
/// the single request-based entry point used by every experiment harness.
[[nodiscard]] RunResult run_workload(const std::string& workload_name, SimConfig cfg,
                                     double oversub, const WorkloadParams& params = {});

}  // namespace uvmsim
