#include "sim/config_parse.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace uvmsim {
namespace {

TEST(ConfigParse, SetsEnumsByName) {
  SimConfig cfg;
  apply_config_setting(cfg, "policy", "adaptive");
  apply_config_setting(cfg, "mem.eviction", "lfu");
  apply_config_setting(cfg, "mem.prefetcher", "none");
  EXPECT_EQ(cfg.policy.policy, PolicyKind::kAdaptive);
  EXPECT_EQ(cfg.mem.eviction, EvictionKind::kLfu);
  EXPECT_EQ(cfg.mem.prefetcher, PrefetcherKind::kNone);
}

TEST(ConfigParse, SetsNumbersAndBooleans) {
  SimConfig cfg;
  apply_config_setting(cfg, "policy.static_threshold", "32");
  apply_config_setting(cfg, "xfer.pcie_bandwidth_gbps", "31.5");
  apply_config_setting(cfg, "gpu.l2.enabled", "true");
  apply_config_setting(cfg, "mitigation.enabled", "on");
  EXPECT_EQ(cfg.policy.static_threshold, 32u);
  EXPECT_DOUBLE_EQ(cfg.xfer.pcie_bandwidth_gbps, 31.5);
  EXPECT_TRUE(cfg.gpu.l2.enabled);
  EXPECT_TRUE(cfg.mitigation.enabled);
}

TEST(ConfigParse, SizeSuffixes) {
  SimConfig cfg;
  apply_config_setting(cfg, "mem.device_capacity_bytes", "48MB");
  EXPECT_EQ(cfg.mem.device_capacity_bytes, 48ull << 20);
  apply_config_setting(cfg, "mem.device_capacity_bytes", "1 GB");
  EXPECT_EQ(cfg.mem.device_capacity_bytes, 1ull << 30);
  apply_config_setting(cfg, "gpu.l2.size_bytes", "512kb");
  EXPECT_EQ(cfg.gpu.l2.size_bytes, 512ull << 10);
}

TEST(ConfigParse, KeyValueAssignmentForm) {
  SimConfig cfg;
  apply_config_setting(cfg, " policy.migration_penalty = 1048576 ");
  EXPECT_EQ(cfg.policy.migration_penalty, 1048576u);
}

TEST(ConfigParse, CaseInsensitiveKeysAndValues) {
  SimConfig cfg;
  apply_config_setting(cfg, "Policy", "ADAPTIVE");
  EXPECT_EQ(cfg.policy.policy, PolicyKind::kAdaptive);
}

TEST(ConfigParse, UnknownKeyThrows) {
  SimConfig cfg;
  EXPECT_THROW(apply_config_setting(cfg, "mem.nonsense", "1"), std::invalid_argument);
}

TEST(ConfigParse, BadValuesThrow) {
  SimConfig cfg;
  EXPECT_THROW(apply_config_setting(cfg, "policy", "bogus"), std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "gpu.num_sms", "many"), std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "gpu.l2.enabled", "perhaps"),
               std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "no-equals-sign"), std::invalid_argument);
  // Values the lenient std::stoull/std::stod parser wrapped, truncated or let
  // through: each would have run a different experiment than was asked for.
  EXPECT_THROW(apply_config_setting(cfg, "gpu.tlb_entries_per_sm", "-1"), std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "gpu.num_sms", "4294967297"), std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "mem.oversubscription", "1.25xyz"),
               std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "gpu.core_clock_ghz", "nan"), std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "xfer.pcie_bandwidth_gbps", "inf"),
               std::invalid_argument);
  EXPECT_THROW(apply_config_setting(cfg, "mem.device_capacity_bytes", "17592186044418MB"),
               std::invalid_argument);
  EXPECT_EQ(to_config_string(cfg), to_config_string(SimConfig{}));  // nothing was written
}

TEST(ConfigParse, FileWithCommentsAndBlanks) {
  SimConfig cfg;
  std::istringstream file(R"(
# experiment: PCIe 4.0 what-if
xfer.pcie_bandwidth_gbps = 31.5
policy = adaptive          # the paper's scheme
mem.eviction = lfu

policy.migration_penalty = 4
)");
  EXPECT_EQ(load_config_stream(cfg, file), 4u);
  EXPECT_DOUBLE_EQ(cfg.xfer.pcie_bandwidth_gbps, 31.5);
  EXPECT_EQ(cfg.policy.policy, PolicyKind::kAdaptive);
  EXPECT_EQ(cfg.policy.migration_penalty, 4u);
}

TEST(ConfigParse, KeyListingIsNonTrivialAndSorted) {
  const auto& keys = config_keys();
  EXPECT_GT(keys.size(), 25u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_NE(std::find(keys.begin(), keys.end(), "policy.migration_penalty"), keys.end());
}

TEST(ConfigRoundTrip, SerializeThenLoadReproducesEveryField) {
  SimConfig original;
  original.policy.policy = PolicyKind::kAdaptive;
  original.policy.static_threshold = 16;
  original.policy.migration_penalty = 1048576;
  original.mem.eviction = EvictionKind::kTree;
  original.mem.prefetcher = PrefetcherKind::kSequential;
  original.mem.oversubscription = 1.25;
  original.gpu.l2.enabled = true;
  original.mitigation.enabled = true;
  original.xfer.pcie_bandwidth_gbps = 31.5;
  original.kernel_launch_overhead_us = 7.5;
  original.copy_then_execute = true;
  original.rng_seed = 12345;

  std::istringstream in(to_config_string(original));
  SimConfig restored;
  load_config_stream(restored, in);

  EXPECT_EQ(restored.policy.policy, original.policy.policy);
  EXPECT_EQ(restored.policy.static_threshold, original.policy.static_threshold);
  EXPECT_EQ(restored.policy.migration_penalty, original.policy.migration_penalty);
  EXPECT_EQ(restored.mem.eviction, original.mem.eviction);
  EXPECT_EQ(restored.mem.prefetcher, original.mem.prefetcher);
  EXPECT_DOUBLE_EQ(restored.mem.oversubscription, original.mem.oversubscription);
  EXPECT_EQ(restored.gpu.l2.enabled, original.gpu.l2.enabled);
  EXPECT_EQ(restored.mitigation.enabled, original.mitigation.enabled);
  EXPECT_DOUBLE_EQ(restored.xfer.pcie_bandwidth_gbps, original.xfer.pcie_bandwidth_gbps);
  EXPECT_DOUBLE_EQ(restored.kernel_launch_overhead_us, original.kernel_launch_overhead_us);
  EXPECT_EQ(restored.copy_then_execute, original.copy_then_execute);
  EXPECT_EQ(restored.rng_seed, original.rng_seed);
}

TEST(ConfigRoundTrip, DefaultsRoundTripToo) {
  SimConfig original;
  std::istringstream in(to_config_string(original));
  SimConfig restored;
  const std::size_t applied = load_config_stream(restored, in);
  EXPECT_GE(applied, 30u);
  EXPECT_EQ(to_config_string(restored), to_config_string(original));
}

TEST(ConfigRoundTrip, EveryKeyRoundTripsANonDefaultValue) {
  // One non-default value per key, written the way to_config_string prints
  // it, so each line is also pinned verbatim.
  const std::vector<std::pair<std::string, std::string>> settings{
      {"gpu.num_sms", "14"},
      {"gpu.warps_per_sm", "8"},
      {"gpu.core_clock_ghz", "1.5"},
      {"gpu.dram_latency", "200"},
      {"gpu.dram_bandwidth_gbps", "242.5"},
      {"gpu.page_walk_latency", "150"},
      {"gpu.tlb_entries_per_sm", "32"},
      {"gpu.l2.enabled", "true"},
      {"gpu.l2.size_bytes", "1048576"},
      {"gpu.l2.ways", "8"},
      {"xfer.pcie_bandwidth_gbps", "31.5"},
      {"xfer.host_memory_bandwidth_gbps", "30.5"},
      {"xfer.pcie_latency", "50"},
      {"xfer.remote_access_latency", "400"},
      {"xfer.remote_overhead_bytes", "64"},
      {"xfer.far_fault_latency_us", "22.5"},
      {"xfer.fault_batch_max", "128"},
      {"xfer.fault_batch_window", "1000"},
      {"mem.device_capacity_bytes", "33554432"},
      {"mem.eviction", "tree"},
      {"mem.prefetcher", "sequential"},
      {"mem.eviction_granularity", "65536"},
      {"mem.eviction_protect_cycles", "1000"},
      {"mem.counter_granularity", "4096"},
      {"mem.counter_count_bits", "8"},
      {"mem.oversubscription", "1.25"},
      {"mem.coalescing", "true"},
      {"mem.splinter_on_evict", "true"},
      {"policy", "adaptive"},
      {"policy.static_threshold", "16"},
      {"policy.migration_penalty", "1048576"},
      {"policy.write_triggers_migration", "false"},
      {"policy.adaptive_write_migrates", "true"},
      {"policy.historic_counters_override", "true"},
      {"audit.enabled", "true"},
      {"audit.interval_events", "64"},
      {"audit.fail_fast", "false"},
      {"mitigation.enabled", "true"},
      {"mitigation.detect_faults", "5"},
      {"mitigation.pin_cooldown", "1000"},
      {"rng_seed", "12345"},
      {"copy_then_execute", "true"},
      {"kernel_launch_overhead_us", "7.5"},
  };
  std::set<std::string> covered;
  for (const auto& [key, value] : settings) covered.insert(key);
  EXPECT_EQ(covered, std::set<std::string>(config_keys().begin(), config_keys().end()));

  const std::string defaults = to_config_string(SimConfig{});
  for (const auto& [key, value] : settings) {
    SCOPED_TRACE(key);
    SimConfig cfg;
    apply_config_setting(cfg, key, value);
    const std::string text = to_config_string(cfg);
    EXPECT_NE(text, defaults);
    EXPECT_NE(text.find(key + " = " + value + "\n"), std::string::npos);
    std::istringstream in(text);
    SimConfig reloaded;
    load_config_stream(reloaded, in);
    EXPECT_EQ(to_config_string(reloaded), text);
  }
}

TEST(ConfigRoundTrip, DefaultDigestIsStable) {
  // Trace headers carry this digest; a change here flags every recorded
  // trace as captured under a different configuration.
  EXPECT_EQ(config_digest(SimConfig{}), 0xb7418c2799cbf69fULL);
}

TEST(ConfigParse, ParsedConfigValidates) {
  SimConfig cfg;
  std::istringstream file("mem.device_capacity_bytes = 32MB\npolicy.static_threshold = 16\n");
  load_config_stream(cfg, file);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigParse, ValidateRejectionNamesTheKey) {
  // Values every key parses but the configuration cannot run: uvmsim maps
  // the rejection to rc 2, so its message must name the key that was set.
  const std::pair<const char*, const char*> kRejected[] = {
      {"gpu.num_sms", "0"},
      {"mem.device_capacity_bytes", "0"},
      {"kernel_launch_overhead_us", "-5"},
  };
  for (const auto& [key, value] : kRejected) {
    SimConfig cfg;
    apply_config_setting(cfg, key, value);
    try {
      cfg.validate();
      ADD_FAILURE() << key << "=" << value << " passed validate()";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace uvmsim
