#include "trace/replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/simulator.hpp"
#include "sim/config_parse.hpp"
#include "trace/trace_binary.hpp"

namespace uvmsim {
namespace {

RecordedTrace tiny_trace() {
  RecordedTrace t;
  t.allocations = {{"a", kLargePageSize}, {"b", 3 * kBasicBlockSize}};
  t.launches.push_back(
      {"k1",
       {Access{0, AccessType::kRead, 4, 10}, Access{kPageSize, AccessType::kWrite, 1, 0}}});
  t.launches.push_back({"k2", {Access{kLargePageSize, AccessType::kRead, 2, 5}}});
  return t;
}

TEST(TraceWorkload, ReplaysRecordedAccesses) {
  TraceWorkload wl(tiny_trace());
  AddressSpace space;
  wl.build(space);
  EXPECT_EQ(space.num_allocations(), 2u);

  const auto seq = wl.schedule();
  ASSERT_EQ(seq.size(), 2u);
  std::vector<Access> buf;
  seq[0]->gen_task(0, buf);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0].addr, 0u);
  EXPECT_EQ(buf[0].count, 4u);
  EXPECT_EQ(buf[1].type, AccessType::kWrite);
}

TEST(TraceWorkload, EmptyTraceThrows) {
  TraceWorkload wl(RecordedTrace{});
  AddressSpace space;
  EXPECT_THROW(wl.build(space), std::invalid_argument);
}

/// Record `wl` under `cfg` through TraceWriter into `path`, then load the
/// capture back through read_trb_as_recorded — the path `uvmsim-fuzz
/// --trace` takes. Removes the file.
RecordedTrace record_and_load(Workload& wl, const SimConfig& cfg, const std::string& path,
                              RunResult& recorded) {
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    TraceWriter writer(os, {wl.name(), 0, config_digest(cfg)});
    SimConfig record_cfg = cfg;
    record_cfg.collect_traces = true;
    RunOptions opts;
    opts.trace_sink = &writer;
    recorded = Simulator(record_cfg).run(wl, opts);
    writer.finalize();
  }
  RecordedTrace trace = read_trb_as_recorded(path);
  std::remove(path.c_str());
  return trace;
}

// End-to-end: record a real workload, replay it, and compare access totals.
TEST(RecordReplay, EndToEndRoundTrip) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;

  auto original = make_workload("fdtd", params);
  RunResult recorded;
  TraceWorkload replay(record_and_load(*original, cfg, "replay_e2e.trb", recorded));

  // Replay under the same configuration.
  const RunResult replayed = Simulator(cfg).run(replay);

  EXPECT_EQ(replayed.stats.total_accesses, recorded.stats.total_accesses);
  EXPECT_EQ(replayed.footprint_bytes, recorded.footprint_bytes);
  EXPECT_EQ(replayed.kernels.size(), recorded.kernels.size());
}

TEST(RecordReplay, ReplayUnderDifferentPolicies) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  cfg.mem.oversubscription = 1.25;

  auto original = make_workload("ra", params);
  RunResult recorded;
  const RecordedTrace trace = record_and_load(*original, cfg, "replay_policies.trb", recorded);

  // The same trace, two different drivers.
  TraceWorkload replay1(trace);
  TraceWorkload replay2(trace);
  SimConfig adaptive = cfg;
  adaptive.policy.policy = PolicyKind::kAdaptive;
  adaptive.mem.eviction = EvictionKind::kLfu;

  const RunResult rb = Simulator(cfg).run(replay1);
  const RunResult ra_ = Simulator(adaptive).run(replay2);
  EXPECT_EQ(rb.stats.total_accesses, ra_.stats.total_accesses);
  EXPECT_LT(ra_.stats.pages_thrashed, rb.stats.pages_thrashed);
}

}  // namespace
}  // namespace uvmsim
