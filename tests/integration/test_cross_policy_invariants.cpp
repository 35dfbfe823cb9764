// Cross-policy invariants: the workload-generated access stream is a pure
// function of (workload, scale, seed) — policies may only change *where*
// accesses are serviced and how long they take, never how many there are.
// Sweeps every benchmark across all four policies and checks conservation
// properties that any correct driver implementation must satisfy.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/simulator.hpp"

namespace uvmsim {
namespace {

// Plain bytes, no pointer: gtest lists each case with a dump of its raw
// bytes, and the heap address inside a std::string made that listing (and
// so the CTest test names) change with address-space randomisation.
struct Case {
  double oversub;
  char workload[32];
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.workload) + (info.param.oversub > 0 ? "_over" : "_fit");
}

class CrossPolicy : public ::testing::TestWithParam<Case> {};

TEST_P(CrossPolicy, AccessStreamIsPolicyInvariant) {
  const Case& c = GetParam();
  WorkloadParams params;
  params.scale = 0.1;

  std::map<PolicyKind, RunResult> results;
  for (const PolicyKind policy : {PolicyKind::kFirstTouch, PolicyKind::kStaticAlways,
                                  PolicyKind::kStaticOversub, PolicyKind::kAdaptive}) {
    SimConfig cfg;
    cfg.gpu.num_sms = 8;
    cfg.gpu.warps_per_sm = 2;
    cfg.policy.policy = policy;
    cfg.mem.eviction =
        policy == PolicyKind::kFirstTouch ? EvictionKind::kLru : EvictionKind::kLfu;
    results.emplace(policy, run_workload(c.workload, cfg, c.oversub, params));
  }

  const RunResult& base = results.at(PolicyKind::kFirstTouch);
  for (const auto& [policy, r] : results) {
    // Identical access totals and footprints.
    EXPECT_EQ(r.stats.total_accesses, base.stats.total_accesses);
    EXPECT_EQ(r.footprint_bytes, base.footprint_bytes);
    EXPECT_EQ(r.capacity_bytes, base.capacity_bytes);
    EXPECT_EQ(r.kernels.size(), base.kernels.size());

    // Conservation: serviced accesses (local + remote) plus faulted
    // originals cover the stream; every migrated block was paid for on the
    // wire; evictions never exceed migrations.
    EXPECT_LE(r.stats.local_accesses + r.stats.remote_accesses, r.stats.total_accesses);
    EXPECT_EQ(r.stats.bytes_h2d,
              (r.stats.blocks_migrated + r.stats.blocks_prefetched) * kBasicBlockSize);
    EXPECT_LE(r.stats.pages_evicted / kPagesPerBlock,
              r.stats.blocks_migrated + r.stats.blocks_prefetched);

    // First-touch never uses remote access; the delayed schemes may.
    if (policy == PolicyKind::kFirstTouch) {
      EXPECT_EQ(r.stats.remote_accesses, 0u);
    }
    // Fitting working sets never oversubscribe, under any policy.
    if (c.oversub <= 0) {
      EXPECT_EQ(r.stats.evictions, 0u);
      EXPECT_EQ(r.stats.pages_thrashed, 0u);
      EXPECT_EQ(r.stats.writeback_pages, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CrossPolicy,
    ::testing::Values(Case{1.25, "backprop"}, Case{1.25, "fdtd"}, Case{1.25, "hotspot"},
                      Case{1.25, "srad"}, Case{1.25, "bfs"}, Case{1.25, "nw"},
                      Case{1.25, "ra"}, Case{1.25, "sssp"}, Case{0.0, "fdtd"},
                      Case{0.0, "sssp"}, Case{1.25, "spmv"}, Case{1.25, "pagerank"},
                      Case{1.25, "kmeans"}, Case{1.25, "histogram"}),
    case_name);

}  // namespace
}  // namespace uvmsim
