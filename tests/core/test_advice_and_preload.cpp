// Memory-advice hints (cudaMemAdvise model) and the classic copy-then-
// execute mode.
#include <gtest/gtest.h>

#include <map>

#include "core/simulator.hpp"
#include "core/uvm_driver.hpp"
#include "workloads/common.hpp"

namespace uvmsim {
namespace {

// --- AddressSpace advice plumbing ---------------------------------------

TEST(MemAdviceApi, AdviseByIdAndName) {
  AddressSpace s;
  const AllocId a = s.allocate("edges", kLargePageSize);
  EXPECT_EQ(s.alloc(a).advice, MemAdvice::kNone);
  s.advise(a, MemAdvice::kAccessedBy);
  EXPECT_EQ(s.alloc(a).advice, MemAdvice::kAccessedBy);
  EXPECT_TRUE(s.advise("edges", MemAdvice::kPreferredHost));
  EXPECT_EQ(s.alloc(a).advice, MemAdvice::kPreferredHost);
  EXPECT_FALSE(s.advise("nosuch", MemAdvice::kNone));
}

// --- Driver-level semantics ----------------------------------------------

class AdviceDriverTest : public ::testing::Test {
 protected:
  void build(MemAdvice advice, SimConfig cfg = SimConfig{}) {
    cfg_ = cfg;
    space_ = AddressSpace{};
    const AllocId id = space_.allocate("a", 4 * kLargePageSize);
    space_.advise(id, advice);
    queue_ = EventQueue{};
    stats_ = SimStats{};
    driver_ = std::make_unique<UvmDriver>(cfg_, space_, 8 * kLargePageSize, queue_, stats_);
  }

  AccessOutcome access(VirtAddr addr, AccessType t = AccessType::kRead,
                       std::uint32_t count = 1) {
    const auto out = driver_->access(0, addr, t, count, queue_.now());
    queue_.run();
    return out;
  }

  SimConfig cfg_;
  AddressSpace space_;
  EventQueue queue_;
  SimStats stats_;
  std::unique_ptr<UvmDriver> driver_;
};

TEST_F(AdviceDriverTest, AccessedByNeverMigrates) {
  build(MemAdvice::kAccessedBy);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(access(0, i % 2 ? AccessType::kWrite : AccessType::kRead, 8).stalled);
  }
  EXPECT_EQ(stats_.far_faults, 0u);
  EXPECT_EQ(stats_.blocks_migrated, 0u);
  EXPECT_EQ(stats_.remote_accesses, 200u * 8u);
}

TEST_F(AdviceDriverTest, PreferredHostDelaysReadsMigratesWrites) {
  build(MemAdvice::kPreferredHost);  // first-touch global policy, ts = 8
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(access(0).stalled);  // below ts: soft pin holds
  }
  EXPECT_TRUE(access(0).stalled);  // 8th read crosses ts
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kDevice);
  // Writes to another advised block migrate immediately (Volta semantics),
  // without prefetch expansion.
  const auto migrated = stats_.blocks_migrated;
  EXPECT_TRUE(access(addr_of_block(1), AccessType::kWrite).stalled);
  EXPECT_EQ(stats_.blocks_migrated, migrated + 1);
  EXPECT_GT(stats_.write_forced_migrations, 0u);
}

TEST_F(AdviceDriverTest, NoAdviceFollowsThePolicy) {
  build(MemAdvice::kNone);
  EXPECT_TRUE(access(0).stalled);  // first touch migrates under the baseline
}

// --- End-to-end: oracle hints behave like hard pinning --------------------

TEST(AdviceIntegration, AccessedByKeepsColdDataOffDevice) {
  WorkloadParams params;
  params.scale = 0.1;
  SimConfig cfg;
  cfg.gpu.num_sms = 8;
  cfg.gpu.warps_per_sm = 2;
  cfg.mem.oversubscription = 1.25;

  auto plain_wl = make_workload("ra", params);
  const RunResult plain = Simulator(cfg).run(*plain_wl);

  auto hinted_wl = make_workload("ra", params);
  Simulator hinted_sim(cfg);
  RunOptions hinted_opts;
  hinted_opts.advice_hook = [](AddressSpace& space) {
    ASSERT_TRUE(space.advise("update_table", MemAdvice::kAccessedBy));
  };
  const RunResult hinted = hinted_sim.run(*hinted_wl, hinted_opts);

  EXPECT_GT(hinted.stats.remote_accesses, 0u);
  EXPECT_LT(hinted.stats.pages_thrashed, plain.stats.pages_thrashed);
  EXPECT_LT(hinted.stats.bytes_h2d, plain.stats.bytes_h2d);
}

// --- Copy-then-execute ----------------------------------------------------

TEST(CopyThenExecute, PreloadsEverythingThenRunsFaultFree) {
  WorkloadParams params;
  params.scale = 0.1;
  SimConfig cfg;
  cfg.gpu.num_sms = 8;
  cfg.gpu.warps_per_sm = 2;
  cfg.copy_then_execute = true;

  auto wl = make_workload("fdtd", params);
  const RunResult r = Simulator(cfg).run(*wl);

  EXPECT_GT(r.preload_cycles, 0u);
  EXPECT_EQ(r.stats.far_faults, 0u);          // everything resident upfront
  EXPECT_EQ(r.stats.remote_accesses, 0u);
  EXPECT_EQ(r.stats.bytes_h2d, r.footprint_bytes);
  // Kernel time alone beats the UVM run's kernel time (no fault stalls) —
  // the reason "copy then execute" was the classic model.
  SimConfig uvm = cfg;
  uvm.copy_then_execute = false;
  auto wl2 = make_workload("fdtd", params);
  const RunResult u = Simulator(uvm).run(*wl2);
  EXPECT_LT(r.stats.kernel_cycles, u.stats.kernel_cycles);
}

TEST(CopyThenExecute, RefusesToOversubscribe) {
  WorkloadParams params;
  params.scale = 0.1;
  SimConfig cfg;
  cfg.copy_then_execute = true;
  cfg.mem.oversubscription = 1.25;
  auto wl = make_workload("fdtd", params);
  Simulator sim(cfg);
  EXPECT_THROW((void)sim.run(*wl), std::invalid_argument);
}

}  // namespace
}  // namespace uvmsim
