// End-to-end mechanical invariants: every benchmark x policy combination
// runs to completion and the collected statistics are self-consistent.
#include <gtest/gtest.h>

#include "core/simulator.hpp"

namespace uvmsim {
namespace {

// Plain bytes, no pointer and no padding: gtest lists each combo with a dump
// of its raw bytes, and the heap address inside a std::string made that
// listing (and so the CTest test names) change from one build to the next.
struct Combo {
  char workload[38];
  PolicyKind policy;
  EvictionKind eviction;
  double oversub;
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const Combo& c = info.param;
  std::string s = std::string(c.workload) + "_";
  switch (c.policy) {
    case PolicyKind::kFirstTouch: s += "baseline"; break;
    case PolicyKind::kStaticAlways: s += "always"; break;
    case PolicyKind::kStaticOversub: s += "oversub"; break;
    case PolicyKind::kAdaptive: s += "adaptive"; break;
  }
  s += c.eviction == EvictionKind::kLru ? "_lru" : "_lfu";
  if (c.oversub > 0) {
    s += "_over" + std::to_string(static_cast<int>(c.oversub * 100));
  } else {
    s += "_fit";
  }
  return s;
}

class EndToEnd : public ::testing::TestWithParam<Combo> {};

TEST_P(EndToEnd, RunsAndStatsAreConsistent) {
  const Combo& c = GetParam();
  SimConfig cfg;
  cfg.policy.policy = c.policy;
  cfg.mem.eviction = c.eviction;
  WorkloadParams params;
  params.scale = 0.3;

  const RunResult r = run_workload(c.workload, cfg, c.oversub, params);

  // Completion and timing.
  EXPECT_GT(r.stats.total_accesses, 0u);
  EXPECT_GT(r.stats.kernel_cycles, 0u);
  EXPECT_LE(r.stats.kernel_cycles, r.stats.total_cycles);

  // Access accounting: every transaction is local, remote, or replayed after
  // a stall (replays complete as local DRAM accesses but are counted once).
  EXPECT_LE(r.stats.local_accesses + r.stats.remote_accesses, r.stats.total_accesses);

  // Traffic accounting.
  EXPECT_EQ(r.stats.bytes_h2d,
            (r.stats.blocks_migrated + r.stats.blocks_prefetched) * kBasicBlockSize);
  EXPECT_EQ(r.stats.bytes_d2h % kBasicBlockSize, 0u);
  EXPECT_EQ(r.stats.writeback_pages % kPagesPerBlock, 0u);

  // Eviction accounting.
  EXPECT_LE(r.stats.writeback_pages, r.stats.pages_evicted);
  EXPECT_LE(r.stats.distinct_pages_thrashed, r.stats.pages_thrashed);
  if (c.oversub <= 0) {
    // Working set fits: no oversubscription machinery may trigger.
    EXPECT_EQ(r.stats.evictions, 0u);
    EXPECT_EQ(r.stats.pages_thrashed, 0u);
  }

  // Migrated data never exceeds the VA span per migration (sanity bound).
  EXPECT_LE(r.stats.blocks_migrated + r.stats.blocks_prefetched,
            r.stats.far_faults * 64 + r.footprint_bytes / kBasicBlockSize + 1024);

  // TLB accounting: one lookup per coalesced access event, and events never
  // outnumber transactions.
  EXPECT_GT(r.stats.tlb_hits + r.stats.tlb_misses, 0u);
  EXPECT_LE(r.stats.tlb_hits + r.stats.tlb_misses, r.stats.total_accesses);
}

std::vector<Combo> all_combos() {
  std::vector<Combo> v;
  for (const auto& w : workload_names()) {
    Combo c{{}, PolicyKind::kFirstTouch, EvictionKind::kLru, 1.25};
    w.copy(c.workload, sizeof c.workload - 1);
    v.push_back(c);
    c.policy = PolicyKind::kAdaptive;
    c.eviction = EvictionKind::kLfu;
    v.push_back(c);
  }
  // A few representative extras to cover the remaining policies/modes.
  v.push_back({"bfs", PolicyKind::kStaticAlways, EvictionKind::kLfu, 1.25});
  v.push_back({"sssp", PolicyKind::kStaticOversub, EvictionKind::kLfu, 1.25});
  v.push_back({"ra", PolicyKind::kStaticAlways, EvictionKind::kLfu, 1.25});
  v.push_back({"fdtd", PolicyKind::kStaticAlways, EvictionKind::kLfu, 1.25});
  v.push_back({"fdtd", PolicyKind::kAdaptive, EvictionKind::kLfu, 0.0});
  v.push_back({"sssp", PolicyKind::kAdaptive, EvictionKind::kLfu, 0.0});
  v.push_back({"ra", PolicyKind::kFirstTouch, EvictionKind::kLru, 1.5});
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EndToEnd, ::testing::ValuesIn(all_combos()),
                         combo_name);

TEST(EndToEndModes, BlockEvictionGranularityRuns) {
  SimConfig cfg;
  cfg.mem.eviction_granularity = kBasicBlockSize;
  cfg.mem.eviction = EvictionKind::kLfu;
  WorkloadParams params;
  params.scale = 0.3;
  const RunResult r = run_workload("ra", cfg, 1.25, params);
  EXPECT_GT(r.stats.evictions, 0u);
  // 64 KB eviction: each eviction displaces exactly one block.
  EXPECT_EQ(r.stats.pages_evicted, r.stats.evictions * kPagesPerBlock);
}

TEST(EndToEndModes, PageCounterGranularityRuns) {
  SimConfig cfg;
  cfg.mem.counter_granularity = kPageSize;
  cfg.policy.policy = PolicyKind::kAdaptive;
  WorkloadParams params;
  params.scale = 0.3;
  const RunResult r = run_workload("bfs", cfg, 1.25, params);
  EXPECT_GT(r.stats.total_accesses, 0u);
}

TEST(EndToEndModes, AlternatePrefetchersRun) {
  WorkloadParams params;
  params.scale = 0.3;
  for (const auto pf : {PrefetcherKind::kNone, PrefetcherKind::kSequential,
                        PrefetcherKind::kRandom}) {
    SimConfig cfg;
    cfg.mem.prefetcher = pf;
    const RunResult r = run_workload("fdtd", cfg, 1.25, params);
    EXPECT_GT(r.stats.kernel_cycles, 0u);
    if (pf == PrefetcherKind::kNone) {
      EXPECT_EQ(r.stats.blocks_prefetched, 0u);
    }
  }
}

TEST(EndToEndModes, TreePrefetcherReducesFaultsVersusNone) {
  WorkloadParams params;
  params.scale = 0.3;
  // Few warps: the sweep front trickles, so the prefetcher can run ahead of
  // demand instead of every block being touched in the first instants.
  SimConfig none_cfg;
  none_cfg.gpu.num_sms = 4;
  none_cfg.gpu.warps_per_sm = 2;
  SimConfig tree_cfg = none_cfg;
  none_cfg.mem.prefetcher = PrefetcherKind::kNone;
  tree_cfg.mem.prefetcher = PrefetcherKind::kTree;
  const RunResult none = run_workload("fdtd", none_cfg, 0.0, params);
  const RunResult tree = run_workload("fdtd", tree_cfg, 0.0, params);
  EXPECT_LT(tree.stats.far_faults, none.stats.far_faults / 2);
  EXPECT_LT(tree.stats.kernel_cycles, none.stats.kernel_cycles);
}

}  // namespace
}  // namespace uvmsim
