#include "core/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/check.hpp"
#include "core/uvm_driver.hpp"
#include "gpu/gpu_model.hpp"
#include "obs/metrics_recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/runner.hpp"

namespace uvmsim {

Simulator::Simulator(SimConfig cfg) : cfg_(std::move(cfg)) { cfg_.validate(); }

RunResult Simulator::run(Workload& workload, const RunOptions& opts) {
  AddressSpace space;
  workload.build(space);
  if (space.num_allocations() == 0)
    throw std::invalid_argument("Simulator: workload declared no allocations");
  if (opts.advice_hook) opts.advice_hook(space);

  const std::uint64_t capacity = derived_capacity_bytes(cfg_, space.footprint_bytes());

  EventQueue queue;
  SimStats stats;
  UvmDriver driver(cfg_, space, capacity, queue, stats);
  GpuModel gpu(cfg_, queue, driver, stats);
  TraceSink* trace = opts.trace_sink;
  if (cfg_.collect_traces && trace != nullptr) {
    driver.set_trace_sink(trace);
    gpu.set_trace_sink(trace);  // task hand-out stream (trace recording)
  }
  // Layout metadata is reported like kernel boundaries: whenever a sink is
  // attached, independent of collect_traces (it is not part of the per-access
  // observation stream the flag gates).
  if (trace != nullptr) trace->on_layout(space);

  const auto launches = workload.schedule();
  if (launches.empty()) throw std::invalid_argument("Simulator: empty launch schedule");

  RunResult result;
  result.footprint_bytes = space.footprint_bytes();
  result.capacity_bytes = capacity;
  result.kernels.reserve(launches.size());

  // Chain launches: each completion starts the next kernel.
  std::size_t next = 0;
  std::function<void()> launch_next = [&]() {
    if (next >= launches.size()) return;
    const std::size_t i = next++;
    const Kernel& k = *launches[i];
    if (trace != nullptr) trace->on_kernel_begin(static_cast<std::uint32_t>(i), k.name());
    result.kernels.push_back(KernelStat{k.name(), queue.now(), 0});
    gpu.launch(k, [&, i] {
      result.kernels[i].end = queue.now();
      const Cycle overhead = cfg_.launch_overhead_cycles();
      if (overhead > 0 && next < launches.size()) {
        queue.schedule_in(overhead, launch_next);
      } else {
        launch_next();
      }
    });
  };
  if (cfg_.copy_then_execute) {
    // Bulk-transfer the whole working set, then start the kernel chain.
    driver.preload_all([&](Cycle done) {
      result.preload_cycles = done;
      launch_next();
    });
  } else {
    launch_next();
  }
  if (opts.metrics == nullptr) {
    queue.run();
  } else {
    // Sample on the shared clock without scheduling anything, so SimStats
    // (total_cycles included) equal an unobserved run's: before each event,
    // record every interval boundary it crosses; after the drain, record the
    // end state at the first boundary past the last event.
    UVM_CHECK(opts.metrics_interval > 0, "RunOptions: metrics_interval must be > 0");
    const Cycle interval = opts.metrics_interval;
    Cycle boundary = 0;
    auto sample = [&] {
      opts.metrics->sample(boundary, stats, driver.device().used_blocks(),
                           driver.device().capacity_blocks());
      boundary += interval;
    };
    while (!queue.empty()) {
      while (boundary <= queue.next_event_cycle()) sample();
      queue.step();
    }
    sample();
  }

  if (result.kernels.size() != launches.size() || result.kernels.back().end == 0)
    throw std::logic_error("Simulator: schedule did not run to completion");
  if (!driver.idle())
    throw std::logic_error("Simulator: driver left outstanding work after drain");
  // Final audit pass over the drained state (no-op unless audit.enabled).
  driver.audit_final();

  stats.total_cycles = queue.now();
  for (const KernelStat& k : result.kernels) stats.kernel_cycles += k.duration();
  result.stats = stats;
  result.allocations = classify_allocations(driver);
  return result;
}

std::uint64_t derived_capacity_bytes(const SimConfig& cfg, std::uint64_t footprint_bytes) {
  std::uint64_t capacity = cfg.mem.device_capacity_bytes;
  if (cfg.mem.oversubscription > 0.0) {
    const auto raw = static_cast<std::uint64_t>(
        static_cast<double>(footprint_bytes) / cfg.mem.oversubscription);
    capacity = std::max<std::uint64_t>(kLargePageSize, raw / kLargePageSize * kLargePageSize);
  }
  return capacity;
}

RunResult run_workload(const std::string& workload_name, SimConfig cfg, double oversub,
                       const WorkloadParams& params) {
  RunRequest req;
  req.workload = workload_name;
  req.params = params;
  req.config = std::move(cfg);
  req.oversub = oversub;
  return run_request(req);
}

}  // namespace uvmsim
