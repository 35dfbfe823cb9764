#include "multigpu/multi_gpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/uvm_driver.hpp"
#include "gpu/gpu_model.hpp"
#include "sim/event_queue.hpp"

namespace uvmsim {

MultiGpuSimulator::MultiGpuSimulator(SimConfig cfg, MultiGpuConfig mg)
    : cfg_(std::move(cfg)), mg_(mg) {
  cfg_.validate();
  if (mg_.num_gpus == 0) throw std::invalid_argument("MultiGpuSimulator: num_gpus == 0");
  if (mg_.peer.enabled && mg_.num_gpus > PeerDirectory::kMaxGpus) {
    throw std::invalid_argument("MultiGpuSimulator: the peer directory tracks at most " +
                                std::to_string(PeerDirectory::kMaxGpus) + " GPUs");
  }
}

MultiGpuResult MultiGpuSimulator::run(Workload& workload) {
  AddressSpace space;
  workload.build(space);
  if (space.num_allocations() == 0)
    throw std::invalid_argument("MultiGpuSimulator: workload declared no allocations");

  std::uint64_t capacity = cfg_.mem.device_capacity_bytes;
  if (cfg_.mem.oversubscription > 0.0) {
    capacity = static_cast<std::uint64_t>(static_cast<double>(space.footprint_bytes()) /
                                          cfg_.mem.oversubscription);
  }
  if (mg_.split_capacity) capacity /= mg_.num_gpus;
  capacity = std::max<std::uint64_t>(kLargePageSize, capacity / kLargePageSize * kLargePageSize);

  EventQueue queue;

  // One driver + GPU model per device; independent PCIe links to host, but
  // host DRAM bandwidth is the shared, contended resource.
  BandwidthRegulator host_mem(cfg_.xfer.host_memory_bandwidth_gbps /
                              cfg_.gpu.core_clock_ghz);
  PeerDirectory peers(space.total_blocks(), mg_.peer, cfg_.gpu.core_clock_ghz);
  struct Node {
    std::unique_ptr<SimStats> stats;
    std::unique_ptr<UvmDriver> driver;
    std::unique_ptr<GpuModel> gpu;
  };
  std::vector<Node> nodes(mg_.num_gpus);
  for (std::uint32_t g = 0; g < mg_.num_gpus; ++g) {
    Node& n = nodes[g];
    n.stats = std::make_unique<SimStats>();
    n.driver = std::make_unique<UvmDriver>(cfg_, space, capacity, queue, *n.stats, &host_mem);
    if (mg_.peer.enabled) n.driver->set_peer_directory(&peers, g);
    n.gpu = std::make_unique<GpuModel>(cfg_, queue, *n.driver, *n.stats);
  }

  const auto launches = workload.schedule();
  if (launches.empty())
    throw std::invalid_argument("MultiGpuSimulator: empty launch schedule");

  MultiGpuResult result;
  result.footprint_bytes = space.footprint_bytes();
  result.capacity_bytes_per_gpu = capacity;
  result.kernels.reserve(launches.size());

  // Launch chain: each kernel runs task-strided on every GPU; the next
  // launch starts when the slowest GPU finishes (bulk-synchronous).
  std::size_t next = 0;
  std::uint32_t outstanding = 0;
  std::vector<std::shared_ptr<const Kernel>> live_slices;
  std::function<void()> launch_next = [&]() {
    if (next >= launches.size()) return;
    const std::size_t i = next++;
    result.kernels.push_back(KernelStat{launches[i]->name(), queue.now(), 0});
    outstanding = mg_.num_gpus;
    live_slices.clear();
    for (std::uint32_t g = 0; g < mg_.num_gpus; ++g) {
      auto slice = std::make_shared<KernelSlice>(launches[i], g, mg_.num_gpus);
      live_slices.push_back(slice);
      nodes[g].gpu->launch(*slice, [&, i] {
        if (--outstanding == 0) {
          result.kernels[i].end = queue.now();
          launch_next();
        }
      });
    }
  };
  launch_next();
  queue.run();

  if (result.kernels.size() != launches.size() || result.kernels.back().end == 0)
    throw std::logic_error("MultiGpuSimulator: schedule did not run to completion");

  for (auto& n : nodes) {
    n.stats->total_cycles = queue.now();
    result.per_gpu.push_back(*n.stats);
    result.aggregate.accumulate(*n.stats);
  }
  for (const KernelStat& k : result.kernels) result.makespan += k.duration();
  return result;
}

}  // namespace uvmsim
