// Randomized stress: generate arbitrary workload shapes (random allocation
// counts/sizes, random mixtures of sequential runs, strided walks, random
// probes, and writes) and check that every policy runs them to completion
// with self-consistent statistics. Catches driver state-machine bugs that
// the structured benchmarks never trigger.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "sim/rng.hpp"
#include "workloads/common.hpp"

namespace uvmsim {
namespace {

/// Workload with pseudo-random structure derived entirely from a seed.
class FuzzWorkload final : public Workload {
 public:
  explicit FuzzWorkload(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::string name() const override { return "fuzz"; }

  void build(AddressSpace& space) override {
    Rng rng(seed_);
    const auto num_allocs = 2 + rng.below(6);  // 2..7 allocations
    for (std::uint64_t i = 0; i < num_allocs; ++i) {
      // 64 KB .. 4 MB, odd sizes to exercise the chunk-rounding paths.
      const std::uint64_t bytes = kBasicBlockSize + rng.below(4 * kLargePageSize);
      regions_.push_back(make_region(space, "fuzz" + std::to_string(i), bytes));
    }
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    Rng rng(seed_ ^ 0xabcdef);
    const auto launches = 1 + rng.below(4);
    std::vector<std::shared_ptr<const Kernel>> seq;
    for (std::uint64_t l = 0; l < launches; ++l) {
      seq.push_back(std::make_shared<FuzzKernel>(regions_, seed_ + l));
    }
    return seq;
  }

 private:
  class FuzzKernel final : public Kernel {
   public:
    FuzzKernel(std::vector<Region> regions, std::uint64_t seed)
        : regions_(std::move(regions)), seed_(seed) {}
    [[nodiscard]] std::string name() const override { return "fuzz_kernel"; }
    [[nodiscard]] std::uint64_t num_tasks() const override { return 48; }

    void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
      Rng rng = task_rng(seed_, 0, task);
      const auto ops = 16 + rng.below(48);
      for (std::uint64_t i = 0; i < ops; ++i) {
        const Region& r = regions_[rng.below(regions_.size())];
        const std::uint64_t lines = r.bytes / kWarpAccessBytes;
        const auto mode = rng.below(4);
        const AccessType type = rng.chance(0.3) ? AccessType::kWrite : AccessType::kRead;
        switch (mode) {
          case 0: {  // sequential run, block-bounded
            std::uint64_t line = rng.below(lines);
            const auto run = 1 + rng.below(8);
            for (std::uint64_t j = 0; j < run; ++j) {
              const VirtAddr a = r.at(((line + j) % lines) * kWarpAccessBytes);
              out.push_back(Access{a, type, 1, static_cast<std::uint16_t>(rng.below(64))});
            }
            break;
          }
          case 1: {  // strided walk
            const std::uint64_t stride = 1 + rng.below(64);
            std::uint64_t line = rng.below(lines);
            for (int j = 0; j < 8; ++j) {
              out.push_back(Access{r.at(line * kWarpAccessBytes), type, 1, 16});
              line = (line + stride) % lines;
            }
            break;
          }
          case 2: {  // coalesced burst within one block
            const std::uint64_t block_lines = kBasicBlockSize / kWarpAccessBytes;
            const std::uint64_t base_line = rng.below(lines) / block_lines * block_lines;
            const auto count = static_cast<std::uint16_t>(1 + rng.below(16));
            if ((base_line + count) * kWarpAccessBytes <= r.bytes) {
              out.push_back(Access{r.at(base_line * kWarpAccessBytes), type, count, 8});
            }
            break;
          }
          default:  // single random probe
            out.push_back(Access{r.at(rng.below(lines) * kWarpAccessBytes), type, 1, 4});
        }
      }
    }

   private:
    std::vector<Region> regions_;
    std::uint64_t seed_;
  };

  std::uint64_t seed_;
  std::vector<Region> regions_;
};

class StressRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressRandom, EveryPolicyRunsCleanly) {
  for (const PolicyKind policy : {PolicyKind::kFirstTouch, PolicyKind::kStaticAlways,
                                  PolicyKind::kStaticOversub, PolicyKind::kAdaptive}) {
    for (const double oversub : {0.0, 1.4}) {
      FuzzWorkload wl(GetParam());
      SimConfig cfg;
      cfg.gpu.num_sms = 4;
      cfg.gpu.warps_per_sm = 2;
      cfg.policy.policy = policy;
      cfg.mem.eviction = policy == PolicyKind::kAdaptive ? EvictionKind::kLfu
                                                         : EvictionKind::kLru;
      cfg.mem.oversubscription = oversub;

      const RunResult r = Simulator(cfg).run(wl);
      ASSERT_GT(r.stats.total_accesses, 0u);
      ASSERT_LE(r.stats.local_accesses + r.stats.remote_accesses, r.stats.total_accesses);
      ASSERT_EQ(r.stats.bytes_h2d,
                (r.stats.blocks_migrated + r.stats.blocks_prefetched) * kBasicBlockSize);
      if (oversub == 0.0) {
        ASSERT_EQ(r.stats.pages_thrashed, 0u);
      }
    }
  }
}

TEST_P(StressRandom, TreeEvictionAndBlockGranularityAlsoSurvive) {
  FuzzWorkload wl1(GetParam()), wl2(GetParam());
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  cfg.mem.oversubscription = 1.4;

  cfg.mem.eviction = EvictionKind::kTree;
  const RunResult tree = Simulator(cfg).run(wl1);
  ASSERT_GT(tree.stats.total_accesses, 0u);

  cfg.mem.eviction = EvictionKind::kLfu;
  cfg.mem.eviction_granularity = kBasicBlockSize;
  const RunResult fine = Simulator(cfg).run(wl2);
  ASSERT_EQ(fine.stats.total_accesses, tree.stats.total_accesses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressRandom,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull, 99999ull,
                                           0xdeadbeefull));

}  // namespace
}  // namespace uvmsim
