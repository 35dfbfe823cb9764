#include "multigpu/multi_gpu.hpp"

#include <gtest/gtest.h>

#include <set>

#include "workloads/common.hpp"

namespace uvmsim {
namespace {

/// Deterministic kernel emitting one access per task (task index encoded in
/// the address) — lets tests verify exact task coverage of slices.
class IndexKernel final : public Kernel {
 public:
  explicit IndexKernel(std::uint64_t tasks) : tasks_(tasks) {}
  [[nodiscard]] std::string name() const override { return "index"; }
  [[nodiscard]] std::uint64_t num_tasks() const override { return tasks_; }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    out.push_back(Access{task * kWarpAccessBytes, AccessType::kRead, 1, 0});
  }

 private:
  std::uint64_t tasks_;
};

TEST(KernelSlice, PartitionsTasksExactlyOnce) {
  auto inner = std::make_shared<IndexKernel>(10);
  std::set<VirtAddr> seen;
  std::uint64_t total = 0;
  for (std::uint32_t g = 0; g < 3; ++g) {
    KernelSlice slice(inner, g, 3);
    total += slice.num_tasks();
    std::vector<Access> buf;
    for (std::uint64_t t = 0; t < slice.num_tasks(); ++t) {
      buf.clear();
      slice.gen_task(t, buf);
      ASSERT_EQ(buf.size(), 1u);
      EXPECT_TRUE(seen.insert(buf[0].addr).second) << "task executed twice";
    }
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(seen.size(), 10u);
}

TEST(KernelSlice, HandlesFewerTasksThanGpus) {
  auto inner = std::make_shared<IndexKernel>(2);
  KernelSlice s0(inner, 0, 4), s1(inner, 1, 4), s2(inner, 2, 4), s3(inner, 3, 4);
  EXPECT_EQ(s0.num_tasks(), 1u);
  EXPECT_EQ(s1.num_tasks(), 1u);
  EXPECT_EQ(s2.num_tasks(), 0u);
  EXPECT_EQ(s3.num_tasks(), 0u);
}

TEST(KernelSlice, NamesIdentifyTheGpu) {
  auto inner = std::make_shared<IndexKernel>(4);
  EXPECT_EQ(KernelSlice(inner, 1, 2).name(), "index/gpu1");
}

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  return cfg;
}

TEST(MultiGpu, RunsAllBenchmarksToCompletion) {
  WorkloadParams params;
  params.scale = 0.1;
  for (const auto& name : {"fdtd", "bfs"}) {
    auto wl = make_workload(name, params);
    MultiGpuSimulator sim(small_cfg(), MultiGpuConfig{2, true});
    const MultiGpuResult r = sim.run(*wl);
    ASSERT_EQ(r.per_gpu.size(), 2u);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.per_gpu[0].total_accesses, 0u) << name;
    EXPECT_GT(r.per_gpu[1].total_accesses, 0u) << name;
    EXPECT_EQ(r.aggregate.total_accesses,
              r.per_gpu[0].total_accesses + r.per_gpu[1].total_accesses);
  }
}

TEST(MultiGpu, MatchesSingleGpuAccessTotals) {
  WorkloadParams params;
  params.scale = 0.1;
  auto wl1 = make_workload("fdtd", params);
  auto wl2 = make_workload("fdtd", params);

  Simulator single(small_cfg());
  const RunResult sr = single.run(*wl1);

  MultiGpuSimulator multi(small_cfg(), MultiGpuConfig{2, false});
  const MultiGpuResult mr = multi.run(*wl2);

  // Same work, split two ways: transaction totals must be identical.
  EXPECT_EQ(mr.aggregate.total_accesses, sr.stats.total_accesses);
}

TEST(MultiGpu, SplitCapacityDividesDeviceMemory) {
  WorkloadParams params;
  params.scale = 0.4;  // large enough that capacity/2 stays above one chunk
  SimConfig cfg = small_cfg();
  cfg.mem.oversubscription = 1.25;

  auto wl1 = make_workload("ra", params);
  MultiGpuSimulator split(cfg, MultiGpuConfig{2, true});
  const MultiGpuResult a = split.run(*wl1);

  auto wl2 = make_workload("ra", params);
  MultiGpuSimulator full(cfg, MultiGpuConfig{2, false});
  const MultiGpuResult b = full.run(*wl2);

  EXPECT_LT(a.capacity_bytes_per_gpu, b.capacity_bytes_per_gpu);
  // With full per-GPU capacity the pressure is halved: less thrash.
  EXPECT_LE(b.aggregate.pages_thrashed, a.aggregate.pages_thrashed);
}

TEST(MultiGpu, AdaptiveReducesThrashAcrossGpus) {
  WorkloadParams params;
  params.scale = 0.4;
  SimConfig base = SimConfig{};
  base.mem.oversubscription = 1.25;
  SimConfig adaptive = base;
  adaptive.policy.policy = PolicyKind::kAdaptive;
  adaptive.mem.eviction = EvictionKind::kLfu;

  auto wl1 = make_workload("sssp", params);
  auto wl2 = make_workload("sssp", params);
  const MultiGpuResult b = MultiGpuSimulator(base, MultiGpuConfig{2, true}).run(*wl1);
  const MultiGpuResult a = MultiGpuSimulator(adaptive, MultiGpuConfig{2, true}).run(*wl2);

  EXPECT_LT(a.aggregate.pages_thrashed, b.aggregate.pages_thrashed);
  EXPECT_LT(a.makespan, b.makespan);
}

TEST(MultiGpu, DeterministicAcrossRuns) {
  WorkloadParams params;
  params.scale = 0.1;
  auto wl1 = make_workload("bfs", params);
  auto wl2 = make_workload("bfs", params);
  const MultiGpuResult a = MultiGpuSimulator(small_cfg(), MultiGpuConfig{2, true}).run(*wl1);
  const MultiGpuResult b = MultiGpuSimulator(small_cfg(), MultiGpuConfig{2, true}).run(*wl2);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.aggregate.far_faults, b.aggregate.far_faults);
}

TEST(MultiGpu, ZeroGpusRejected) {
  EXPECT_THROW(MultiGpuSimulator(small_cfg(), MultiGpuConfig{0, true}),
               std::invalid_argument);
  // The peer directory's holder mask names at most eight GPUs.
  MultiGpuConfig mg{PeerDirectory::kMaxGpus, true};
  mg.peer.enabled = true;
  EXPECT_NO_THROW(MultiGpuSimulator(small_cfg(), mg));
  mg.num_gpus = PeerDirectory::kMaxGpus + 1;
  EXPECT_THROW(MultiGpuSimulator(small_cfg(), mg), std::invalid_argument);
  mg.peer.enabled = false;
  EXPECT_NO_THROW(MultiGpuSimulator(small_cfg(), mg));
}

}  // namespace
}  // namespace uvmsim
