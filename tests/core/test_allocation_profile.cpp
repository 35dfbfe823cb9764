#include "core/allocation_profile.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/simulator.hpp"
#include "core/uvm_driver.hpp"

namespace uvmsim {
namespace {

TEST(AllocationClassToString, Names) {
  EXPECT_EQ(to_string(AllocationClass::kHot), "hot");
  EXPECT_EQ(to_string(AllocationClass::kCold), "cold");
  EXPECT_EQ(to_string(AllocationClass::kUntouched), "untouched");
}

TEST(AllocationProfileDriver, ClassifiesByDensity) {
  AddressSpace space;
  const AllocId hot = space.allocate("hot", kLargePageSize);
  const AllocId cold = space.allocate("cold", kLargePageSize);
  const AllocId idle = space.allocate("idle", kLargePageSize);
  (void)hot;
  (void)cold;
  (void)idle;

  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;  // historic counters, no migration noise
  EventQueue queue;
  SimStats stats;
  UvmDriver driver(cfg, space, 8 * kLargePageSize, queue, stats);

  // Dense traffic on "hot", a trickle on "cold", nothing on "idle".
  for (int i = 0; i < 100; ++i) {
    (void)driver.access(0, space.alloc(0).base, AccessType::kWrite, 16, 0);
  }
  (void)driver.access(0, space.alloc(1).base, AccessType::kRead, 1, 0);
  queue.run();

  std::map<std::string, AllocationProfile> byname;
  for (auto& p : classify_allocations(driver)) byname[p.name] = p;

  EXPECT_EQ(byname.at("hot").classification, AllocationClass::kHot);
  EXPECT_TRUE(byname.at("hot").written);
  EXPECT_EQ(byname.at("cold").classification, AllocationClass::kCold);
  EXPECT_FALSE(byname.at("cold").written);
  EXPECT_EQ(byname.at("idle").classification, AllocationClass::kUntouched);
  EXPECT_EQ(byname.at("idle").access_count, 0u);
  EXPECT_GT(byname.at("hot").accesses_per_kb, byname.at("cold").accesses_per_kb);
}

TEST(AllocationProfileRun, SsspSplitsHotAndCold) {
  WorkloadParams params;
  params.scale = 0.15;
  SimConfig cfg;
  cfg.gpu.num_sms = 8;
  cfg.gpu.warps_per_sm = 2;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.mem.eviction = EvictionKind::kLfu;

  const RunResult r = run_workload("sssp", cfg, 1.25, params);
  std::map<std::string, AllocationClass> cls;
  for (const auto& p : r.allocations) cls[p.name] = p.classification;

  // The paper's Fig 2b split, recovered from the driver's own counters.
  EXPECT_EQ(cls.at("dist"), AllocationClass::kHot);
  EXPECT_EQ(cls.at("graph_edges"), AllocationClass::kCold);
  EXPECT_EQ(cls.at("edge_weights"), AllocationClass::kCold);
}

TEST(AllocationProfileRun, RegularWorkloadIsUniformlyHot) {
  WorkloadParams params;
  params.scale = 0.1;
  SimConfig cfg;
  cfg.gpu.num_sms = 8;
  cfg.gpu.warps_per_sm = 2;
  // Classification needs the framework's historic counters; under the
  // Volta semantics of the static schemes, counts clear on migration.
  cfg.policy.policy = PolicyKind::kAdaptive;
  const RunResult r = run_workload("fdtd", cfg, 0.0, params);
  for (const auto& p : r.allocations) {
    EXPECT_EQ(p.classification, AllocationClass::kHot) << p.name;
  }
}

TEST(AllocationProfileRun, FormatProducesOneRowPerAllocation) {
  WorkloadParams params;
  params.scale = 0.1;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  const RunResult r = run_workload("hotspot", cfg, 0.0, params);
  const std::string table = format_profiles(r.allocations);
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 1 + 3);  // header + 3 allocs
  EXPECT_NE(table.find("temp"), std::string::npos);
  EXPECT_NE(table.find("power"), std::string::npos);
}

}  // namespace
}  // namespace uvmsim
