#include "sim/config.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>

namespace uvmsim {
namespace {

TEST(Config, DefaultsAreValid) {
  SimConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, DefaultsMatchTableOne) {
  const SimConfig cfg;
  EXPECT_EQ(cfg.gpu.num_sms, 28u);
  EXPECT_DOUBLE_EQ(cfg.gpu.core_clock_ghz, 1.481);
  EXPECT_EQ(cfg.gpu.dram_latency, 100u);
  EXPECT_EQ(cfg.gpu.page_walk_latency, 100u);
  EXPECT_EQ(cfg.xfer.remote_access_latency, 200u);
  EXPECT_DOUBLE_EQ(cfg.xfer.far_fault_latency_us, 45.0);
  EXPECT_EQ(cfg.mem.eviction, EvictionKind::kLru);
  EXPECT_EQ(cfg.mem.prefetcher, PrefetcherKind::kTree);
  EXPECT_EQ(cfg.mem.eviction_granularity, kLargePageSize);
  EXPECT_EQ(cfg.mem.counter_granularity, kBasicBlockSize);
  EXPECT_EQ(cfg.policy.static_threshold, 8u);
  EXPECT_EQ(cfg.policy.migration_penalty, 8u);
  EXPECT_EQ(cfg.policy.policy, PolicyKind::kFirstTouch);
}

TEST(Config, FarFaultCyclesMatchesClock) {
  SimConfig cfg;
  // 45 us at 1.481 GHz = 66645 cycles.
  EXPECT_EQ(cfg.far_fault_cycles(), 66645u);
}

TEST(Config, PcieBytesPerCycle) {
  const SimConfig cfg;
  EXPECT_NEAR(cfg.pcie_bytes_per_cycle(), 15.75 / 1.481, 1e-9);
}

TEST(Config, DramBytesPerCycle) {
  const SimConfig cfg;
  EXPECT_NEAR(cfg.dram_bytes_per_cycle(), 484.0 / 1.481, 1e-9);
}

TEST(Config, TotalWarps) {
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 16;
  EXPECT_EQ(cfg.total_warps(), 64u);
}

TEST(ConfigValidation, RejectsZeroSms) {
  SimConfig cfg;
  cfg.gpu.num_sms = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsTinyCapacity) {
  SimConfig cfg;
  cfg.mem.device_capacity_bytes = kBasicBlockSize;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsUnalignedCapacity) {
  SimConfig cfg;
  cfg.mem.device_capacity_bytes = kLargePageSize + 123;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsBadEvictionGranularity) {
  SimConfig cfg;
  cfg.mem.eviction_granularity = kPageSize;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, AcceptsBlockEvictionGranularity) {
  SimConfig cfg;
  cfg.mem.eviction_granularity = kBasicBlockSize;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidation, AcceptsPageCounterGranularity) {
  SimConfig cfg;
  cfg.mem.counter_granularity = kPageSize;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidation, RejectsZeroThreshold) {
  SimConfig cfg;
  cfg.policy.static_threshold = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsZeroPenalty) {
  SimConfig cfg;
  cfg.policy.migration_penalty = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigValidation, RejectsNonFiniteDoubles) {
  // A NaN compares false with everything, so it slips past a plain `<= 0`
  // check; every double field must be finite.
  using Field = double& (*)(SimConfig&);
  const Field fields[] = {
      [](SimConfig& c) -> double& { return c.gpu.core_clock_ghz; },
      [](SimConfig& c) -> double& { return c.gpu.dram_bandwidth_gbps; },
      [](SimConfig& c) -> double& { return c.xfer.pcie_bandwidth_gbps; },
      [](SimConfig& c) -> double& { return c.xfer.host_memory_bandwidth_gbps; },
      [](SimConfig& c) -> double& { return c.xfer.far_fault_latency_us; },
      [](SimConfig& c) -> double& { return c.mem.oversubscription; },
      [](SimConfig& c) -> double& { return c.kernel_launch_overhead_us; },
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    for (std::size_t i = 0; i < std::size(fields); ++i) {
      SCOPED_TRACE(testing::Message() << "field " << i << " = " << v);
      SimConfig cfg;
      fields[i](cfg) = v;
      EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
  }
  // An oversubscription of <= 0 still means "use device_capacity_bytes".
  SimConfig cfg;
  cfg.mem.oversubscription = -1.0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, DescribeMentionsKeyParameters) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;
  const std::string s = describe(cfg);
  EXPECT_NE(s.find("PCIe"), std::string::npos);
  EXPECT_NE(s.find("dynamic threshold"), std::string::npos);
  EXPECT_NE(s.find("ts = 8"), std::string::npos);
  EXPECT_NE(s.find("p = 8"), std::string::npos);
}

TEST(Config, EnumToString) {
  EXPECT_EQ(to_string(EvictionKind::kLru), "LRU");
  EXPECT_EQ(to_string(EvictionKind::kLfu), "LFU");
  EXPECT_EQ(to_string(PrefetcherKind::kTree), "tree");
  EXPECT_EQ(to_string(PrefetcherKind::kNone), "none");
}

TEST(Geometry, Constants) {
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(kBasicBlockSize, 65536u);
  EXPECT_EQ(kLargePageSize, 2u * 1024 * 1024);
  EXPECT_EQ(kPagesPerBlock, 16u);
  EXPECT_EQ(kBlocksPerLargePage, 32u);
  EXPECT_EQ(kPagesPerLargePage, 512u);
}

TEST(Geometry, AddressHelpers) {
  const VirtAddr a = 5 * kLargePageSize + 3 * kBasicBlockSize + 2 * kPageSize + 17;
  EXPECT_EQ(chunk_of(a), 5u);
  EXPECT_EQ(block_of(a), 5u * 32 + 3);
  EXPECT_EQ(page_of(a), (5u * 32 + 3) * 16 + 2);
  EXPECT_EQ(chunk_of_block(block_of(a)), 5u);
  EXPECT_EQ(block_of_page(page_of(a)), block_of(a));
  EXPECT_EQ(first_block_of_chunk(5), 5u * 32);
  EXPECT_EQ(first_page_of_block(7), 7u * 16);
  EXPECT_EQ(addr_of_block(block_of(a)), a / kBasicBlockSize * kBasicBlockSize);
}

TEST(Geometry, RoundingHelpers) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(div_ceil(9, 4), 3u);
  EXPECT_EQ(div_ceil(8, 4), 2u);
}

}  // namespace
}  // namespace uvmsim
