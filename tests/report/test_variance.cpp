#include "report/variance.hpp"

#include <gtest/gtest.h>

#include "core/simulator.hpp"

namespace uvmsim {
namespace {

TEST(SampleStats, EmptyInput) {
  const SampleStats s = summarize_samples({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(SampleStats, SingleSampleHasZeroSpread) {
  const SampleStats s = summarize_samples({42.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

TEST(SampleStats, KnownValues) {
  const SampleStats s = summarize_samples({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.cv(), 0.4276, 0.001);
}

TEST(SeedSweep, DifferentSeedsGiveDifferentButClusteredResults) {
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  WorkloadParams params;
  params.scale = 0.1;
  std::vector<double> cycles;
  for (const std::uint64_t seed : {0x5eedull, 0x5eeeull, 0x5eefull}) {
    params.seed = seed;
    const RunResult r = run_workload("ra", cfg, 1.25, params);
    cycles.push_back(static_cast<double>(r.stats.kernel_cycles));
  }
  ASSERT_EQ(cycles.size(), 3u);
  // Different random tables: results differ but stay within 2x of another.
  const SampleStats s = summarize_samples(cycles);
  EXPECT_GT(s.min, 0.0);
  EXPECT_LT(s.max / s.min, 2.0);
  EXPECT_NE(cycles[0], cycles[1]);
}

}  // namespace
}  // namespace uvmsim
