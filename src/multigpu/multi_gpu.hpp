// Multi-GPU extension (the paper's §VIII future work): collaborative
// data-parallel execution across N GPUs sharing host memory over independent
// PCIe links, with the dynamic-threshold heuristic acting per GPU as a
// memory-throttling mechanism.
//
// Model: one unified VA space; each GPU owns a private device memory and a
// private UVM driver instance (residency, counters, eviction, policy), with
// host memory as the shared home. Every kernel launch is partitioned
// task-strided across the GPUs (the CUDA peer-collaboration idiom for
// data-parallel kernels); a launch completes when every GPU finished its
// slice. Writes are assumed partition-local (collaborative workloads
// partition their output), so no inter-GPU coherence traffic is modelled —
// documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "multigpu/peer_directory.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// Strided view of a kernel's task space: GPU `part` of `parts` executes
/// tasks part, part+parts, part+2*parts, ...
class KernelSlice final : public Kernel {
 public:
  KernelSlice(std::shared_ptr<const Kernel> inner, std::uint32_t part, std::uint32_t parts)
      : inner_(std::move(inner)), part_(part), parts_(parts) {}

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "/gpu" + std::to_string(part_);
  }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    const std::uint64_t total = inner_->num_tasks();
    return part_ < total ? (total - part_ - 1) / parts_ + 1 : 0;
  }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    inner_->gen_task(part_ + task * parts_, out);
  }

 private:
  std::shared_ptr<const Kernel> inner_;
  std::uint32_t part_;
  std::uint32_t parts_;
};

struct MultiGpuConfig {
  std::uint32_t num_gpus = 2;
  /// When true, the total device capacity across GPUs equals what a single
  /// GPU would get (capacity per GPU = derived capacity / num_gpus): adding
  /// GPUs adds bandwidth and fault-handling parallelism but not memory.
  /// When false, every GPU gets the full derived capacity, so adding GPUs
  /// also relieves the oversubscription.
  bool split_capacity = true;
  /// NVLink-class peer fabric: reads of blocks resident on a peer GPU are
  /// served peer-to-peer instead of from host memory.
  PeerFabricConfig peer{};
};

struct MultiGpuResult {
  std::vector<SimStats> per_gpu;
  SimStats aggregate;               ///< sums over GPUs
  std::vector<KernelStat> kernels;  ///< per launch: start / makespan end
  std::uint64_t footprint_bytes = 0;
  std::uint64_t capacity_bytes_per_gpu = 0;
  Cycle makespan = 0;               ///< total kernel wall-clock (cycles)
};

class MultiGpuSimulator {
 public:
  MultiGpuSimulator(SimConfig cfg, MultiGpuConfig mg);

  [[nodiscard]] MultiGpuResult run(Workload& workload);

 private:
  SimConfig cfg_;
  MultiGpuConfig mg_;
};

}  // namespace uvmsim
