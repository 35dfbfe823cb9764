// Host DRAM bandwidth: shared by migrations, writebacks and zero-copy
// traffic; private per driver by default, shareable across drivers (the
// multi-GPU contention point).
#include <gtest/gtest.h>

#include "core/uvm_driver.hpp"
#include "multigpu/multi_gpu.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

TEST(HostMemory, TightHostBandwidthSlowsRemoteAccess) {
  AddressSpace space;
  space.allocate("a", 4 * kLargePageSize);

  auto run_remote = [&](double host_gbps) {
    SimConfig cfg;
    cfg.policy.policy = PolicyKind::kStaticAlways;
    cfg.policy.static_threshold = 1000000;  // everything remote
    cfg.policy.write_triggers_migration = false;
    cfg.xfer.host_memory_bandwidth_gbps = host_gbps;
    EventQueue queue;
    SimStats stats;
    UvmDriver driver(cfg, space, 8 * kLargePageSize, queue, stats);
    Cycle last = 0;
    for (int i = 0; i < 64; ++i) {
      last = driver.access(0, 0, AccessType::kRead, 16, 0).done;
    }
    queue.run();
    return last;
  };

  // With host bandwidth far below PCIe, the host side binds.
  const Cycle fast_host = run_remote(60.0);
  const Cycle slow_host = run_remote(1.0);
  EXPECT_GT(slow_host, 2 * fast_host);
}

TEST(HostMemory, SharedRegulatorSerializesAcrossDrivers) {
  AddressSpace space;
  space.allocate("a", 4 * kLargePageSize);
  SimConfig cfg;

  EventQueue queue;
  SimStats s1, s2;
  BandwidthRegulator host(cfg.xfer.host_memory_bandwidth_gbps / cfg.gpu.core_clock_ghz);
  UvmDriver d1(cfg, space, 8 * kLargePageSize, queue, s1, &host);
  UvmDriver d2(cfg, space, 8 * kLargePageSize, queue, s2, &host);

  (void)d1.access(0, 0, AccessType::kRead, 1, 0);
  (void)d2.access(0, 0, AccessType::kRead, 1, 0);
  queue.run();
  // Both drivers migrated through the same host regulator.
  EXPECT_GT(host.total_bytes(), 0u);
  EXPECT_GE(host.total_bytes(), 2 * kBasicBlockSize);
}

TEST(HostMemory, MultiGpuContentionShowsWithManyGpus) {
  // With host bandwidth barely above one PCIe link, four GPUs migrating
  // concurrently are host-bound: per-GPU effective bandwidth collapses.
  WorkloadParams params;
  params.scale = 0.2;

  auto makespan = [&](double host_gbps) {
    SimConfig cfg;
    cfg.gpu.num_sms = 8;
    cfg.gpu.warps_per_sm = 2;
    cfg.xfer.host_memory_bandwidth_gbps = host_gbps;
    auto wl = make_workload("fdtd", params);
    MultiGpuSimulator sim(cfg, MultiGpuConfig{4, /*split_capacity=*/false});
    return sim.run(*wl).makespan;
  };

  const Cycle ample = makespan(240.0);
  const Cycle scarce = makespan(16.0);
  EXPECT_GT(scarce, ample);
}

}  // namespace
}  // namespace uvmsim
