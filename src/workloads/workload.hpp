// Workload model: a workload declares managed allocations (build) and a
// sequence of kernel launches (schedule). A kernel is a bag of tasks (the
// CTA analogue); warp contexts grab tasks dynamically and play their access
// streams. Generation is deterministic: irregular kernels derive per-task
// randomness by stateless hashing of (workload seed, launch, task), so the
// same configuration always produces the same trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "sim/types.hpp"

namespace uvmsim {

/// One coalesced memory request issued by a warp.
struct Access {
  VirtAddr addr = 0;
  AccessType type = AccessType::kRead;
  /// Number of consecutive 128 B warp transactions this event represents
  /// (all within one 64 KB basic block). Counters advance by `count`.
  std::uint16_t count = 1;
  /// Compute cycles the warp spends after this access completes before it
  /// issues the next one.
  std::uint16_t gap = 0;

  [[nodiscard]] std::uint32_t bytes() const noexcept {
    return static_cast<std::uint32_t>(count) * kWarpAccessBytes;
  }
  [[nodiscard]] bool operator==(const Access&) const = default;
};

class Kernel {
 public:
  virtual ~Kernel() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint64_t num_tasks() const = 0;
  /// Fill `out` (cleared by the caller) with task `task`'s access stream.
  virtual void gen_task(std::uint64_t task, std::vector<Access>& out) const = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Create managed allocations. Called once, before schedule().
  virtual void build(AddressSpace& space) = 0;
  /// The launch sequence (iterations expanded); entries may repeat kernels.
  [[nodiscard]] virtual std::vector<std::shared_ptr<const Kernel>> schedule() const = 0;
};

/// Tuning knobs shared by all workload generators.
struct WorkloadParams {
  double scale = 1.0;        ///< linear scaling of the memory footprint
  std::uint32_t iterations = 0;  ///< 0 = workload default
  std::uint64_t seed = 0x5eedull;
  /// Graph input structure for bfs/sssp: "powerlaw" (few huge frontiers,
  /// Rodinia-style random graphs) or "road" (high diameter, tiny frontiers,
  /// Lonestar road-network style). Ignored by non-graph workloads.
  std::string graph = "powerlaw";
  /// UVMTRB1 trace file driving the "replay" workload. Ignored by every
  /// generator workload.
  std::string trace_file;
};

/// Instantiate a workload by name: any all_generator_workload_names() slug,
/// or "replay". Throws std::invalid_argument on unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const WorkloadParams& params = {});

/// All benchmark names in the paper's order (regular then irregular).
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Additional workloads not evaluated in the paper (generalization suite):
/// kmeans, histogram (regular-ish), spmv, pagerank (irregular).
[[nodiscard]] const std::vector<std::string>& extra_workload_names();

/// Every registered generator slug: workload_names() then
/// extra_workload_names(). Excludes "replay" (it needs
/// WorkloadParams::trace_file).
[[nodiscard]] std::vector<std::string> all_generator_workload_names();

}  // namespace uvmsim
