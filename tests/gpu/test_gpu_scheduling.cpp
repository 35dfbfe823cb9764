// GPU front-end scheduling details: LSU issue serialization, warp wake
// ordering, and L2-path interaction with the warp loop.
#include <gtest/gtest.h>

#include "core/uvm_driver.hpp"
#include "gpu/gpu_model.hpp"

namespace uvmsim {
namespace {

class CountingKernel final : public Kernel {
 public:
  CountingKernel(std::uint64_t tasks, std::uint64_t accesses_per_task, std::uint16_t gap)
      : tasks_(tasks), per_task_(accesses_per_task), gap_(gap) {}
  [[nodiscard]] std::string name() const override { return "counting"; }
  [[nodiscard]] std::uint64_t num_tasks() const override { return tasks_; }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    for (std::uint64_t i = 0; i < per_task_; ++i) {
      out.push_back(Access{(task * per_task_ + i) % 512 * kWarpAccessBytes,
                           AccessType::kRead, 1, gap_});
    }
  }

 private:
  std::uint64_t tasks_, per_task_;
  std::uint16_t gap_;
};

struct Rig {
  explicit Rig(SimConfig c) : cfg(std::move(c)) {
    space.allocate("a", 4 * kLargePageSize);
    driver = std::make_unique<UvmDriver>(cfg, space, 8 * kLargePageSize, queue, stats);
    gpu = std::make_unique<GpuModel>(cfg, queue, *driver, stats);
  }
  SimConfig cfg;
  AddressSpace space;
  EventQueue queue;
  SimStats stats;
  std::unique_ptr<UvmDriver> driver;
  std::unique_ptr<GpuModel> gpu;
};

TEST(GpuScheduling, SingleSmIssueSerializes) {
  // One SM, 4 warps, zero gaps: 64 accesses cannot finish faster than one
  // issue per cycle allows.
  SimConfig cfg;
  cfg.gpu.num_sms = 1;
  cfg.gpu.warps_per_sm = 4;
  Rig rig(cfg);
  CountingKernel k(4, 16, 0);
  rig.gpu->launch(k, [] {});
  rig.queue.run();
  EXPECT_GE(rig.queue.now(), 64u);  // >= one cycle per issued access
  EXPECT_EQ(rig.stats.total_accesses, 64u);
}

TEST(GpuScheduling, MoreSmsFinishSooner) {
  auto runtime = [](std::uint32_t sms) {
    SimConfig cfg;
    cfg.gpu.num_sms = sms;
    cfg.gpu.warps_per_sm = 2;
    Rig rig(cfg);
    CountingKernel k(16, 64, 50);  // fixed total work
    rig.gpu->launch(k, [] {});
    rig.queue.run();
    return rig.queue.now();
  };
  EXPECT_LT(runtime(8), runtime(1));
}

TEST(GpuScheduling, ConcurrentFaultsBatchInsteadOfSerializing) {
  // Two warps fault on different blocks in the same instant: the fault
  // engine services them in one 45 us batch, so the kernel finishes in
  // roughly one fault-handling time, not two.
  SimConfig cfg;
  cfg.gpu.num_sms = 1;
  cfg.gpu.warps_per_sm = 2;
  Rig rig(cfg);

  class TwoFaults final : public Kernel {
   public:
    [[nodiscard]] std::string name() const override { return "two"; }
    [[nodiscard]] std::uint64_t num_tasks() const override { return 2; }
    void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
      out.push_back(Access{task * kLargePageSize, AccessType::kRead, 1, 0});
      for (int i = 1; i < 32; ++i) {
        // After the fault resolves, the rest of the block is local.
        out.push_back(Access{task * kLargePageSize + static_cast<VirtAddr>(i) * 128,
                             AccessType::kRead, 1, 0});
      }
    }
  };
  TwoFaults k;
  Cycle done_at = 0;
  rig.gpu->launch(k, [&] { done_at = rig.queue.now(); });
  rig.queue.run();

  EXPECT_EQ(rig.stats.far_faults, 2u);
  EXPECT_EQ(rig.stats.fault_batches, 1u);  // batched, not serialized
  EXPECT_GT(done_at, rig.cfg.far_fault_cycles());
  EXPECT_LT(done_at, 2 * rig.cfg.far_fault_cycles());
  // 31 post-fault local accesses per warp (the faulted originals replay
  // through the waker and are counted separately).
  EXPECT_EQ(rig.stats.local_accesses, 62u);
  EXPECT_EQ(rig.stats.replayed_accesses, 2u);
}

TEST(GpuScheduling, L2AbsorbsRepeatsWithoutDriverTraffic) {
  SimConfig cfg;
  cfg.gpu.num_sms = 1;
  cfg.gpu.warps_per_sm = 1;
  cfg.gpu.l2.enabled = true;
  Rig rig(cfg);

  class RepeatKernel final : public Kernel {
   public:
    [[nodiscard]] std::string name() const override { return "repeat"; }
    [[nodiscard]] std::uint64_t num_tasks() const override { return 1; }
    void gen_task(std::uint64_t, std::vector<Access>& out) const override {
      for (int i = 0; i < 64; ++i) out.push_back(Access{0, AccessType::kRead, 1, 0});
    }
  };
  RepeatKernel k;
  rig.gpu->launch(k, [] {});
  rig.queue.run();
  EXPECT_EQ(rig.stats.total_accesses, 64u);
  EXPECT_EQ(rig.stats.l2_misses, 1u);
  EXPECT_EQ(rig.stats.l2_hits, 63u);
  // Only the single miss reached the memory system — and it far-faulted
  // (stalled accesses are counted as replays, not local hits).
  EXPECT_EQ(rig.stats.local_accesses + rig.stats.remote_accesses, 0u);
  EXPECT_EQ(rig.stats.far_faults, 1u);
  EXPECT_EQ(rig.stats.replayed_accesses, 1u);
}

TEST(GpuScheduling, L2HitsStillConsumeIssueSlots) {
  // The LSU issue slot is claimed before the TLB and L2 lookups, so accesses
  // fully absorbed by an L2 hit still serialize at one issue per SM per
  // cycle. 64 warps on one SM hammer a single cached line: plenty of warps
  // to cover the 30-cycle hit latency, so the SM's issue port is the
  // bottleneck and N all-hit accesses cannot finish in fewer than N cycles.
  SimConfig cfg;
  cfg.gpu.num_sms = 1;
  cfg.gpu.warps_per_sm = 64;
  cfg.gpu.l2.enabled = true;
  Rig rig(cfg);
  rig.driver->preload_all([](Cycle) {});
  rig.queue.run();  // everything resident: no faults below

  class OneLineKernel final : public Kernel {
   public:
    OneLineKernel(std::uint64_t tasks, std::uint64_t per_task)
        : tasks_(tasks), per_task_(per_task) {}
    [[nodiscard]] std::string name() const override { return "oneline"; }
    [[nodiscard]] std::uint64_t num_tasks() const override { return tasks_; }
    void gen_task(std::uint64_t, std::vector<Access>& out) const override {
      for (std::uint64_t i = 0; i < per_task_; ++i) {
        out.push_back(Access{0, AccessType::kRead, 1, 0});
      }
    }

   private:
    std::uint64_t tasks_, per_task_;
  };

  // Warm the line into L2 (this access is the run's only L2 miss).
  OneLineKernel warmup(1, 1);
  rig.gpu->launch(warmup, [] {});
  rig.queue.run();

  constexpr std::uint64_t kAccesses = 64 * 16;
  OneLineKernel k(64, 16);
  const Cycle start = rig.queue.now();
  rig.gpu->launch(k, [] {});
  rig.queue.run();
  const Cycle elapsed = rig.queue.now() - start;

  EXPECT_EQ(rig.stats.l2_misses, 1u);  // the warm-up access only
  EXPECT_EQ(rig.stats.l2_hits, kAccesses);
  // Lower bound: one issue slot per cycle. Upper bound: the issue port is
  // the only bottleneck, so the run is issue-limited plus one latency tail.
  EXPECT_GE(elapsed, kAccesses);
  EXPECT_LE(elapsed, kAccesses + 2 * kL2HitLatency + 64);
}

}  // namespace
}  // namespace uvmsim
