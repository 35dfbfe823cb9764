// Batch-run engine: a value-typed RunRequest names everything one simulation
// needs (workload, params, config, oversubscription, seed via params.seed),
// run_request() executes exactly one, and run_batch() fans a vector of them
// out over a fixed-size thread pool.
//
// Determinism contract: a request fully determines its run. All randomness
// derives from WorkloadParams::seed / SimConfig::rng_seed carried inside the
// request; the engine owns no RNG and shares no mutable state between runs
// (the workload-input cache in workloads/input_cache.hpp is immutable once
// published). run_batch() therefore yields bit-identical per-run results for
// any jobs count, and entries come back in request order regardless of
// completion order.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "trace/replay.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// Everything needed to reproduce one simulation run.
struct RunRequest {
  std::string workload;      ///< name accepted by make_workload()
  WorkloadParams params;     ///< scale / iterations / seed / graph input
  SimConfig config;          ///< full simulator configuration
  /// Working-set / device-capacity factor; <= 0 keeps config's capacity.
  double oversub = 0.0;
  std::string label;         ///< free-form tag carried into the BatchEntry
  /// When set, the run replays this recorded trace (TraceWorkload) instead
  /// of building `workload` by name. Shared so a fuzz batch can reference
  /// one trace from many requests without copying record vectors.
  std::shared_ptr<const RecordedTrace> trace;
};

/// The single request-based entry point every harness funnels through.
/// run_workload() is a thin wrapper over this.
[[nodiscard]] RunResult run_request(const RunRequest& request, const RunOptions& opts = {});

/// Outcome of one request inside a batch. A throwing run does not abort the
/// batch: the exception message lands in `error` and the other entries are
/// unaffected.
struct BatchEntry {
  RunRequest request;
  RunResult result;          ///< valid only when ok()
  std::string error;         ///< empty on success, exception text on failure
  double wall_ms = 0.0;      ///< host wall-clock time of this run

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

struct BatchResult {
  std::vector<BatchEntry> entries;  ///< request order, not completion order
  double wall_ms = 0.0;             ///< whole-batch wall-clock time
  unsigned jobs = 1;                ///< worker threads actually used
  std::size_t failed = 0;           ///< entries with !ok()

  [[nodiscard]] bool all_ok() const noexcept { return failed == 0; }
};

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). Clamped to
  /// the number of requests. jobs == 1 runs inline on the calling thread.
  unsigned jobs = 0;
  /// Progress callback, invoked after each run completes with the finished
  /// entry and the completed/total counts. Calls are serialized (at most one
  /// at a time) but arrive in completion order, not request order.
  std::function<void(const BatchEntry&, std::size_t done, std::size_t total)> on_done;
  /// Per-run observation factory: called on the executing worker thread just
  /// before each run to build its RunOptions (trace sinks, advice hooks, …).
  /// The returned options — and anything they point at — must stay valid for
  /// the duration of that run. Unset = observe nothing.
  std::function<RunOptions(const RunRequest&, std::size_t index)> make_options;
};

/// Execute every request (concurrently when opts.jobs != 1) and collect the
/// outcomes in request order. Never throws on a failed run — see BatchEntry.
[[nodiscard]] BatchResult run_batch(const std::vector<RunRequest>& requests,
                                    const BatchOptions& opts = {});

}  // namespace uvmsim
