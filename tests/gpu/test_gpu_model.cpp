#include "gpu/gpu_model.hpp"

#include <gtest/gtest.h>

#include "core/uvm_driver.hpp"

namespace uvmsim {
namespace {

/// Minimal kernel issuing a fixed access list split across tasks.
class ListKernel final : public Kernel {
 public:
  ListKernel(std::vector<Access> accesses, std::uint64_t per_task)
      : accesses_(std::move(accesses)), per_task_(per_task) {}
  [[nodiscard]] std::string name() const override { return "list"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(accesses_.size(), per_task_);
  }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const std::size_t first = task * per_task_;
    const std::size_t last = std::min(accesses_.size(), first + per_task_);
    out.insert(out.end(), accesses_.begin() + static_cast<std::ptrdiff_t>(first),
               accesses_.begin() + static_cast<std::ptrdiff_t>(last));
  }

 private:
  std::vector<Access> accesses_;
  std::uint64_t per_task_;
};

class GpuModelTest : public ::testing::Test {
 protected:
  GpuModelTest() {
    cfg_.gpu.num_sms = 2;
    cfg_.gpu.warps_per_sm = 2;
    cfg_.mem.device_capacity_bytes = 8 * kLargePageSize;
    space_.allocate("a", 4 * kLargePageSize);
    driver_ = std::make_unique<UvmDriver>(cfg_, space_, cfg_.mem.device_capacity_bytes,
                                          queue_, stats_);
    gpu_ = std::make_unique<GpuModel>(cfg_, queue_, *driver_, stats_);
  }

  /// Rebuilds the rig around a one-chunk device (no prefetch), then runs one
  /// warp over page 5 of block 0 twice and the second page of every block of
  /// chunk 1. Filling chunk 1 evicts chunk 0, block 0 included; the chunk-1
  /// pages map to TLB slots and L2 sets apart from page 5's. Returns the
  /// number of accesses run.
  std::size_t evict_block0_after_caching_page5() {
    cfg_.mem.prefetcher = PrefetcherKind::kNone;
    gpu_.reset();
    driver_ = std::make_unique<UvmDriver>(cfg_, space_, kLargePageSize, queue_, stats_);
    gpu_ = std::make_unique<GpuModel>(cfg_, queue_, *driver_, stats_);
    std::vector<Access> accesses{Access{5 * kPageSize, AccessType::kRead, 1, 0},
                                 Access{5 * kPageSize, AccessType::kRead, 1, 0}};
    for (BlockNum b = kBlocksPerLargePage; b < 2 * kBlocksPerLargePage; ++b) {
      accesses.push_back(Access{addr_of_block(b) + kPageSize, AccessType::kRead, 1, 0});
    }
    ListKernel fill(accesses, accesses.size());
    gpu_->launch(fill, [] {});
    queue_.run();
    EXPECT_EQ(driver_->blocks().round_trips(0), 1u);
    EXPECT_EQ(driver_->blocks().residence(0), Residence::kHost);
    return accesses.size();
  }

  SimConfig cfg_;
  AddressSpace space_;
  EventQueue queue_;
  SimStats stats_;
  std::unique_ptr<UvmDriver> driver_;
  std::unique_ptr<GpuModel> gpu_;
};

TEST_F(GpuModelTest, RunsAllAccessesToCompletion) {
  std::vector<Access> accesses;
  for (std::uint64_t i = 0; i < 256; ++i) {
    accesses.push_back(Access{i * kWarpAccessBytes, AccessType::kRead, 1, 10});
  }
  ListKernel k(accesses, 32);
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(stats_.total_accesses, 256u);
  EXPECT_FALSE(gpu_->busy());
}

TEST_F(GpuModelTest, EmptyKernelCompletes) {
  ListKernel k({}, 32);
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
}

TEST_F(GpuModelTest, FarFaultsStallAndReplay) {
  std::vector<Access> accesses{
      Access{0, AccessType::kRead, 1, 0},
      Access{kBasicBlockSize, AccessType::kRead, 1, 0},
  };
  ListKernel k(accesses, 2);
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
  EXPECT_GE(stats_.far_faults, 1u);
  EXPECT_GE(stats_.replayed_accesses, 1u);
  // Both blocks ended up resident.
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kDevice);
}

TEST_F(GpuModelTest, SecondKernelReusesResidentData) {
  std::vector<Access> accesses{Access{0, AccessType::kRead, 1, 0}};
  ListKernel k(accesses, 1);
  bool done1 = false, done2 = false;
  gpu_->launch(k, [&] { done1 = true; });
  queue_.run();
  const auto faults_after_first = stats_.far_faults;
  gpu_->launch(k, [&] { done2 = true; });
  queue_.run();
  EXPECT_TRUE(done1);
  EXPECT_TRUE(done2);
  EXPECT_EQ(stats_.far_faults, faults_after_first);  // no new faults
  EXPECT_GE(stats_.local_accesses, 1u);
}

TEST_F(GpuModelTest, LaunchWhileBusyThrows) {
  std::vector<Access> accesses{Access{0, AccessType::kRead, 1, 0}};
  ListKernel k(accesses, 1);
  gpu_->launch(k, [] {});
  EXPECT_THROW(gpu_->launch(k, [] {}), std::logic_error);
  queue_.run();
}

TEST_F(GpuModelTest, TlbHitsOnRepeatedPageAccess) {
  std::vector<Access> accesses;
  for (int i = 0; i < 16; ++i) {
    accesses.push_back(Access{0, AccessType::kRead, 1, 0});  // same page
  }
  ListKernel k(accesses, 16);  // one task -> one warp
  gpu_->launch(k, [] {});
  queue_.run();
  EXPECT_EQ(stats_.tlb_misses, 1u);
  EXPECT_EQ(stats_.tlb_hits, 15u);
}

TEST_F(GpuModelTest, EvictionShootsDownTlbEntry) {
  const std::size_t n = evict_block0_after_caching_page5();
  EXPECT_EQ(stats_.tlb_hits, 1u);
  EXPECT_EQ(stats_.tlb_misses, n - 1);

  // Page 5's translation still sits in its slot, but its block was evicted
  // since it was cached: the next access misses, the one after hits again.
  ListKernel again({Access{5 * kPageSize, AccessType::kRead, 1, 0},
                    Access{5 * kPageSize, AccessType::kRead, 1, 0}},
                   2);
  gpu_->launch(again, [] {});
  queue_.run();
  EXPECT_EQ(stats_.tlb_misses, n);
  EXPECT_EQ(stats_.tlb_hits, 2u);
}

TEST_F(GpuModelTest, EvictionInvalidatesL2Lines) {
  cfg_.gpu.l2.enabled = true;
  evict_block0_after_caching_page5();
  EXPECT_EQ(stats_.l2_hits, 1u);

  // The evicted block's line left the L2: the access misses there and
  // faults the block back in.
  const auto faults = stats_.far_faults;
  ListKernel again({Access{5 * kPageSize, AccessType::kRead, 1, 0}}, 1);
  gpu_->launch(again, [] {});
  queue_.run();
  EXPECT_EQ(stats_.l2_hits, 1u);
  EXPECT_EQ(stats_.far_faults, faults + 1);
}

TEST_F(GpuModelTest, GapDelaysNextIssue) {
  // Two accesses with a large gap; the kernel cannot finish before the gap.
  std::vector<Access> accesses{
      Access{0, AccessType::kRead, 1, 5000},
      Access{128, AccessType::kRead, 1, 0},
  };
  ListKernel k(accesses, 2);
  gpu_->launch(k, [] {});
  queue_.run();
  EXPECT_GE(queue_.now(), 5000u);
}

TEST_F(GpuModelTest, ManyTasksDistributeOverWarps) {
  std::vector<Access> accesses;
  for (std::uint64_t i = 0; i < 64; ++i) {
    accesses.push_back(Access{i * kPageSize, AccessType::kRead, 1, 50});
  }
  ListKernel k(accesses, 4);  // 16 tasks over 4 warp contexts
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(stats_.total_accesses, 64u);
}

}  // namespace
}  // namespace uvmsim
