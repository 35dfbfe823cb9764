// GPU execution model: warp contexts distributed over SMs play the access
// streams of dynamically claimed kernel tasks (persistent-threads style CTA
// dispatch). The model captures what matters to the memory system — massive
// TLP that hides local latency, per-SM LSU issue throughput, per-SM TLBs,
// and warps that stall on far-faults — without instruction-level simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/uvm_driver.hpp"
#include "gpu/l2_cache.hpp"
#include "gpu/tlb.hpp"
#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

class GpuModel {
 public:
  GpuModel(const SimConfig& cfg, EventQueue& queue, UvmDriver& driver, SimStats& stats);

  /// Launch `kernel`; `on_complete` fires when every task has been executed.
  /// Only one kernel may be in flight (kernels serialize, as with
  /// cudaDeviceSynchronize between launches in the benchmarks).
  void launch(const Kernel& kernel, std::function<void()> on_complete);

  [[nodiscard]] bool busy() const noexcept { return active_warps_ > 0; }

  /// Attach an observation sink: TraceSink::on_task fires for every
  /// non-empty task stream at the moment a warp claims it (hand-out order —
  /// what a recorder must preserve for bit-identical replay). Pure
  /// observation; task scheduling never changes based on an attached sink.
  void set_trace_sink(TraceSink* sink) noexcept { trace_ = sink; }

 private:
  struct WarpCtx {
    std::uint32_t sm = 0;
    std::vector<Access> buf;
    std::size_t pos = 0;
    bool active = false;
  };

  void step_warp(WarpId w);
  /// Warp-step ring trampoline: the event queue carries a plain WarpId and
  /// calls back through this, so no per-access closure is ever built.
  static void step_warp_thunk(void* ctx, WarpId w);
  /// Called by the driver when a stalled warp's access completes.
  void wake_warp(WarpId w, Cycle ready);
  static void wake_warp_thunk(void* ctx, WarpId w, Cycle ready);
  /// Driver eviction hook (registered only with the L2 model on): drops the
  /// victims' L2 lines.
  static void invalidate_l2_thunk(void* ctx, std::span<const BlockNum> victims);
  void finish_access(WarpId w, Cycle done);
  bool refill(WarpCtx& warp);
  void retire_warp(WarpId w);

  const SimConfig& cfg_;
  EventQueue& queue_;
  UvmDriver& driver_;
  SimStats& stats_;

  std::vector<WarpCtx> warps_;
  std::uint32_t stepper_ = 0;  ///< this model's warp-stepper handle in queue_
  std::vector<Cycle> sm_next_issue_;
  std::vector<Tlb> tlbs_;
  std::unique_ptr<L2Cache> l2_;  ///< present only when the L2 model is on

  TraceSink* trace_ = nullptr;
  const Kernel* kernel_ = nullptr;
  std::function<void()> on_complete_;
  std::uint64_t next_task_ = 0;
  std::uint64_t num_tasks_ = 0;
  std::uint32_t active_warps_ = 0;
};

}  // namespace uvmsim
