#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include "workloads/common.hpp"

namespace uvmsim {
namespace {

/// Tiny deterministic workload: N sequential passes over one array.
class ScanWorkload final : public Workload {
 public:
  ScanWorkload(std::uint64_t bytes, std::uint32_t passes, AccessType type = AccessType::kRead)
      : bytes_(bytes), passes_(passes), type_(type) {}
  [[nodiscard]] std::string name() const override { return "scan"; }

  void build(AddressSpace& space) override { r_ = make_region(space, "data", bytes_); }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    MapKernel::Options opt;
    opt.count = 8;
    opt.gap = 20;
    auto k = std::make_shared<MapKernel>(
        "scan", std::vector<MapKernel::Operand>{{r_.base, r_.bytes, type_, 0, 1}},
        r_.lines(8 * kWarpAccessBytes), opt);
    return std::vector<std::shared_ptr<const Kernel>>(passes_, k);
  }

 private:
  std::uint64_t bytes_;
  std::uint32_t passes_;
  AccessType type_;
  Region r_;
};

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 4;
  cfg.mem.device_capacity_bytes = 8 * kLargePageSize;
  return cfg;
}

TEST(Simulator, RunsToCompletionAndTimesKernels) {
  ScanWorkload wl(4 * kLargePageSize, 2);
  Simulator sim(small_cfg());
  const RunResult r = sim.run(wl);
  ASSERT_EQ(r.kernels.size(), 2u);
  EXPECT_GT(r.kernels[0].duration(), 0u);
  EXPECT_GE(r.kernels[1].start, r.kernels[0].end);
  EXPECT_EQ(r.stats.kernel_cycles, r.kernels[0].duration() + r.kernels[1].duration());
  EXPECT_EQ(r.footprint_bytes, 4 * kLargePageSize);
  EXPECT_EQ(r.capacity_bytes, 8 * kLargePageSize);
}

TEST(Simulator, SecondPassIsFasterWhenResident) {
  ScanWorkload wl(4 * kLargePageSize, 2);
  Simulator sim(small_cfg());
  const RunResult r = sim.run(wl);
  // First pass pays migration; second runs out of local memory.
  EXPECT_LT(r.kernels[1].duration(), r.kernels[0].duration());
}

TEST(Simulator, OversubscriptionFactorDerivesCapacity) {
  ScanWorkload wl(10 * kLargePageSize, 1);
  SimConfig cfg = small_cfg();
  cfg.mem.oversubscription = 1.25;
  Simulator sim(cfg);
  const RunResult r = sim.run(wl);
  EXPECT_EQ(r.capacity_bytes, 8 * kLargePageSize);  // floor(10/1.25) = 8
  EXPECT_NEAR(r.oversubscription(), 1.25, 0.01);
}

TEST(Simulator, CapacityNeverBelowOneLargePage) {
  ScanWorkload wl(kLargePageSize, 1);
  SimConfig cfg = small_cfg();
  cfg.mem.oversubscription = 8.0;
  Simulator sim(cfg);
  const RunResult r = sim.run(wl);
  EXPECT_EQ(r.capacity_bytes, kLargePageSize);
}

TEST(Simulator, OversubscribedScanThrashesUnderLru) {
  SimConfig cfg = small_cfg();
  cfg.mem.oversubscription = 1.5;
  ScanWorkload wl(12 * kLargePageSize, 3);
  Simulator sim(cfg);
  const RunResult r = sim.run(wl);
  EXPECT_GT(r.stats.evictions, 0u);
  EXPECT_GT(r.stats.pages_thrashed, 0u);
}

TEST(Simulator, WritePassesProduceWritebacks) {
  SimConfig cfg = small_cfg();
  cfg.mem.oversubscription = 1.5;
  ScanWorkload wl(12 * kLargePageSize, 2, AccessType::kWrite);
  Simulator sim(cfg);
  const RunResult r = sim.run(wl);
  EXPECT_GT(r.stats.writeback_pages, 0u);
  EXPECT_GT(r.stats.bytes_d2h, 0u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  SimConfig cfg = small_cfg();
  cfg.mem.oversubscription = 1.25;
  ScanWorkload wl1(8 * kLargePageSize, 2);
  ScanWorkload wl2(8 * kLargePageSize, 2);
  const RunResult a = Simulator(cfg).run(wl1);
  const RunResult b = Simulator(cfg).run(wl2);
  EXPECT_EQ(a.stats.kernel_cycles, b.stats.kernel_cycles);
  EXPECT_EQ(a.stats.far_faults, b.stats.far_faults);
  EXPECT_EQ(a.stats.pages_thrashed, b.stats.pages_thrashed);
}

TEST(Simulator, RunWorkloadHelperWorksForAllBenchmarks) {
  SimConfig cfg = small_cfg();
  WorkloadParams params;
  params.scale = 0.05;  // keep this smoke test fast
  for (const auto& name : workload_names()) {
    const RunResult r = run_workload(name, cfg, /*oversub=*/0.0, params);
    EXPECT_GT(r.stats.total_accesses, 0u) << name;
    EXPECT_GT(r.stats.kernel_cycles, 0u) << name;
  }
}

TEST(Simulator, InvalidConfigThrowsAtConstruction) {
  SimConfig cfg;
  cfg.policy.static_threshold = 0;
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace uvmsim
