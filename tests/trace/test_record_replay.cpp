// Record→replay round-trip suite: for every registered generator family and
// every paper policy, a run recorded through TraceWriter and replayed through
// the `replay` workload must reproduce the original SimStats byte for byte
// (SimStats::operator== is defaulted member-wise equality over every field).
// This is the trace subsystem's core guarantee — hand-out-order recording at
// the task level captures everything that determines a run.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "policy/policy_registry.hpp"
#include "sim/config_parse.hpp"
#include "trace/replay_workload.hpp"
#include "trace/trace_binary.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

constexpr const char* kPaperPolicies[] = {"baseline", "always", "oversub", "adaptive"};

[[nodiscard]] SimConfig oversubscribed_config(const char* policy_slug) {
  SimConfig cfg;
  cfg.mem.oversubscription = 1.3333;
  cfg.mem.eviction = EvictionKind::kLfu;
  EXPECT_TRUE(apply_policy_name(cfg.policy, policy_slug));
  return cfg;
}

struct RoundTrip {
  RunResult recorded;
  RunResult replayed;
  TraceMeta meta;
};

/// Record `workload` under `cfg`, replay the capture under the same config,
/// remove the temp file, and hand both results back for comparison.
[[nodiscard]] RoundTrip record_then_replay(Workload& workload, SimConfig cfg,
                                           const std::string& trace_path) {
  RoundTrip rt;
  {
    std::ofstream os(trace_path, std::ios::binary | std::ios::trunc);
    TraceWriter writer(os, {workload.name(), 0, config_digest(cfg)});
    SimConfig record_cfg = cfg;
    record_cfg.collect_traces = true;
    RunOptions opts;
    opts.trace_sink = &writer;
    rt.recorded = Simulator(record_cfg).run(workload, opts);
    writer.finalize();
  }
  {
    WorkloadParams params;
    params.trace_file = trace_path;
    const std::unique_ptr<Workload> replay = make_workload("replay", params);
    rt.meta = dynamic_cast<const ReplayWorkload&>(*replay).meta();
    rt.replayed = Simulator(cfg).run(*replay);
  }
  std::remove(trace_path.c_str());
  return rt;
}

class RecordReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(RecordReplay, StatsAreByteIdenticalUnderEveryPaperPolicy) {
  const std::string& family = GetParam();
  WorkloadParams params;
  params.scale = 0.03;
  params.seed = 0x5eedull + 7;

  for (const char* policy : kPaperPolicies) {
    SCOPED_TRACE(std::string("policy=") + policy);
    const std::unique_ptr<Workload> wl = make_workload(family, params);
    const SimConfig cfg = oversubscribed_config(policy);
    const RoundTrip rt =
        record_then_replay(*wl, cfg, "rr_" + family + "_" + policy + ".trb");

    EXPECT_TRUE(rt.replayed.stats == rt.recorded.stats)
        << "replayed SimStats diverged from the recorded run";
    EXPECT_EQ(rt.replayed.footprint_bytes, rt.recorded.footprint_bytes);
    EXPECT_EQ(rt.replayed.capacity_bytes, rt.recorded.capacity_bytes);
    ASSERT_EQ(rt.replayed.kernels.size(), rt.recorded.kernels.size());
    for (std::size_t i = 0; i < rt.recorded.kernels.size(); ++i) {
      EXPECT_EQ(rt.replayed.kernels[i].name, rt.recorded.kernels[i].name);
      EXPECT_EQ(rt.replayed.kernels[i].start, rt.recorded.kernels[i].start);
      EXPECT_EQ(rt.replayed.kernels[i].end, rt.recorded.kernels[i].end);
    }
    // Provenance survives the round trip and the digest matches the
    // recording config (the contract uvmsim --replay warns about).
    EXPECT_EQ(rt.meta.workload, family);
    EXPECT_EQ(rt.meta.config_digest, config_digest(cfg));
    EXPECT_GT(rt.meta.total_records, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, RecordReplay,
                         ::testing::ValuesIn(all_generator_workload_names()),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

// ---- zero-task launches --------------------------------------------------

/// A kernel the scheduler launches but that hands out no tasks. Real
/// workloads produce these (BFS levels with an empty frontier); the launch
/// overhead they cost must survive the round trip even though no on_task
/// hook ever fires for them.
class EmptyKernel final : public Kernel {
 public:
  [[nodiscard]] std::string name() const override { return "k_zero_tasks"; }
  [[nodiscard]] std::uint64_t num_tasks() const override { return 0; }
  void gen_task(std::uint64_t, std::vector<Access>&) const override {}
};

class TinyKernel final : public Kernel {
 public:
  [[nodiscard]] std::string name() const override { return "k_tiny"; }
  [[nodiscard]] std::uint64_t num_tasks() const override { return 4; }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    out.push_back(Access{task * 128, AccessType::kRead, 1, 10});
    out.push_back(Access{1 << 20, AccessType::kWrite, 1, 0});
  }
};

class SparseLaunchWorkload final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "sparse_launch"; }
  void build(AddressSpace& space) override { space.allocate("buf", 2 << 20); }
  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    return {std::make_shared<TinyKernel>(), std::make_shared<EmptyKernel>(),
            std::make_shared<TinyKernel>()};
  }
};

TEST(RecordReplayEdge, ZeroTaskLaunchesSurviveTheRoundTrip) {
  SparseLaunchWorkload wl;
  SimConfig cfg;  // fits-in-memory: launch overhead dominates the runtime
  const RoundTrip rt = record_then_replay(wl, cfg, "rr_zero_task.trb");

  ASSERT_EQ(rt.meta.launches.size(), 3u);
  EXPECT_EQ(rt.meta.launches[1].kernel, "k_zero_tasks");
  EXPECT_EQ(rt.meta.launches[1].num_tasks, 0u);
  EXPECT_EQ(rt.meta.launches[1].num_records, 0u);

  EXPECT_TRUE(rt.replayed.stats == rt.recorded.stats);
  ASSERT_EQ(rt.replayed.kernels.size(), 3u);
  EXPECT_EQ(rt.replayed.kernels[1].name, "k_zero_tasks");
}

TEST(RecordReplayEdge, ReplayUnderDifferentPolicyStillCompletes) {
  // Replaying under a config other than the recording one is supported (the
  // CLI prints a digest note); the trace is a workload, not a transcript of
  // decisions, so the run completes and produces self-consistent stats.
  WorkloadParams params;
  params.scale = 0.03;
  const std::unique_ptr<Workload> wl = make_workload("ra", params);
  const std::string path = "rr_cross_policy.trb";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    SimConfig rec_cfg = oversubscribed_config("baseline");
    TraceWriter writer(os, {"ra", params.seed, config_digest(rec_cfg)});
    rec_cfg.collect_traces = true;
    RunOptions opts;
    opts.trace_sink = &writer;
    (void)Simulator(rec_cfg).run(*wl, opts);
    writer.finalize();
  }
  WorkloadParams rp;
  rp.trace_file = path;
  const std::unique_ptr<Workload> replay = make_workload("replay", rp);
  const SimConfig cfg = oversubscribed_config("adaptive");
  const RunResult res = Simulator(cfg).run(*replay);
  std::remove(path.c_str());
  EXPECT_GT(res.stats.total_accesses, 0u);
  EXPECT_GT(res.stats.kernel_cycles, 0u);
}

}  // namespace
}  // namespace uvmsim
