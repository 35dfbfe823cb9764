// Batch-run engine: request-based API, error isolation, the input cache,
// and the serial-vs-parallel determinism guarantee.
#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/input_cache.hpp"

namespace uvmsim {
namespace {

SimConfig small_cfg(PolicyKind policy = PolicyKind::kAdaptive) {
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  cfg.policy.policy = policy;
  cfg.mem.eviction =
      policy == PolicyKind::kFirstTouch ? EvictionKind::kLru : EvictionKind::kLfu;
  return cfg;
}

RunRequest small_request(const std::string& workload, double oversub,
                         std::uint64_t seed = 0x5eedull) {
  RunRequest req;
  req.workload = workload;
  req.params.scale = 0.05;
  req.params.seed = seed;
  req.config = small_cfg();
  req.oversub = oversub;
  return req;
}

TEST(Runner, RunRequestMatchesRunWorkload) {
  const RunRequest req = small_request("ra", 1.25);
  const RunResult via_request = run_request(req);
  const RunResult via_wrapper =
      run_workload(req.workload, req.config, req.oversub, req.params);
  EXPECT_EQ(via_request.stats, via_wrapper.stats);
  EXPECT_EQ(via_request.footprint_bytes, via_wrapper.footprint_bytes);
  EXPECT_EQ(via_request.capacity_bytes, via_wrapper.capacity_bytes);
}

TEST(Runner, BatchPreservesRequestOrderAndTelemetry) {
  std::vector<RunRequest> reqs{small_request("ra", 1.25), small_request("hotspot", 0.0)};
  reqs[0].label = "first";
  reqs[1].label = "second";

  const BatchResult batch = run_batch(reqs, {});
  ASSERT_EQ(batch.entries.size(), 2u);
  EXPECT_TRUE(batch.all_ok());
  EXPECT_EQ(batch.entries[0].request.label, "first");
  EXPECT_EQ(batch.entries[0].request.workload, "ra");
  EXPECT_EQ(batch.entries[1].request.label, "second");
  for (const BatchEntry& e : batch.entries) {
    EXPECT_GT(e.wall_ms, 0.0);
    EXPECT_GT(e.result.footprint_bytes, 0u);
  }
  EXPECT_GE(batch.wall_ms, 0.0);
}

TEST(Runner, FailedRunIsIsolatedFromTheBatch) {
  std::vector<RunRequest> reqs{small_request("ra", 1.25),
                               small_request("no-such-workload", 1.25),
                               small_request("hotspot", 0.0)};
  const BatchResult batch = run_batch(reqs, {});
  ASSERT_EQ(batch.entries.size(), 3u);
  EXPECT_EQ(batch.failed, 1u);
  EXPECT_FALSE(batch.all_ok());
  EXPECT_TRUE(batch.entries[0].ok());
  EXPECT_FALSE(batch.entries[1].ok());
  EXPECT_FALSE(batch.entries[1].error.empty());
  EXPECT_TRUE(batch.entries[2].ok());
  EXPECT_GT(batch.entries[2].result.stats.total_accesses, 0u);
}

TEST(Runner, ProgressCallbackSeesEveryCompletion) {
  std::vector<RunRequest> reqs{small_request("ra", 1.25), small_request("ra", 1.5),
                               small_request("hotspot", 0.0)};
  BatchOptions opts;
  opts.jobs = 2;
  std::atomic<std::size_t> calls{0};
  std::set<std::size_t> done_values;
  std::mutex m;
  opts.on_done = [&](const BatchEntry& e, std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 3u);
    EXPECT_TRUE(e.ok());
    calls.fetch_add(1);
    const std::lock_guard<std::mutex> lock(m);
    done_values.insert(done);
  };
  const BatchResult batch = run_batch(reqs, opts);
  EXPECT_EQ(calls.load(), 3u);
  // `done` counts 1..total with no duplicates (callbacks are serialized).
  EXPECT_EQ(done_values, (std::set<std::size_t>{1, 2, 3}));
  EXPECT_EQ(batch.jobs, 2u);
}

// The determinism guarantee: a serial batch and a 4-worker batch over the
// same seed grid produce identical SimStats per entry.
TEST(Runner, ParallelBatchIsBitIdenticalToSerial) {
  std::vector<RunRequest> reqs;
  for (const std::uint64_t seed : {1ull, 2ull}) {
    reqs.push_back(small_request("bfs", 1.25, seed));
    reqs.push_back(small_request("ra", 1.25, seed));
    reqs.push_back(small_request("sssp", 1.25, seed));
    reqs.push_back(small_request("fdtd", 0.0, seed));
  }

  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions parallel;
  parallel.jobs = 4;
  const BatchResult a = run_batch(reqs, serial);
  const BatchResult b = run_batch(reqs, parallel);

  ASSERT_EQ(a.entries.size(), b.entries.size());
  EXPECT_EQ(a.jobs, 1u);
  EXPECT_EQ(b.jobs, 4u);
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    ASSERT_TRUE(a.entries[i].ok()) << a.entries[i].error;
    ASSERT_TRUE(b.entries[i].ok()) << b.entries[i].error;
    EXPECT_EQ(a.entries[i].result.stats, b.entries[i].result.stats)
        << "entry " << i << " (" << reqs[i].workload << ") diverged";
    EXPECT_EQ(a.entries[i].result.footprint_bytes, b.entries[i].result.footprint_bytes);
    EXPECT_EQ(a.entries[i].result.capacity_bytes, b.entries[i].result.capacity_bytes);
    EXPECT_EQ(a.entries[i].result.kernels.size(), b.entries[i].result.kernels.size());
  }
}

// Concurrent runs of the same workload+scale share one generated input.
TEST(Runner, InputCacheIsSharedAcrossConcurrentRuns) {
  input_cache_clear();
  const InputCacheStats before = input_cache_stats();

  std::vector<RunRequest> reqs(4, small_request("bfs", 1.25, 77));
  BatchOptions opts;
  opts.jobs = 4;
  const BatchResult batch = run_batch(reqs, opts);
  EXPECT_TRUE(batch.all_ok());

  const InputCacheStats after = input_cache_stats();
  // One graph + one wave list generated; the other three runs hit.
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_GE(after.hits - before.hits, 6u);
  EXPECT_GE(after.entries, 2u);
}

TEST(InputCache, BuilderRunsOncePerKeyAndFailureIsRetryable) {
  input_cache_clear();
  std::atomic<int> builds{0};
  auto build = [&] {
    builds.fetch_add(1);
    CsrGraph g;
    g.num_nodes = 1;
    g.offsets = {0, 1};
    g.targets = {0};
    return g;
  };
  const auto a = cached_graph("test/unit", build);
  const auto b = cached_graph("test/unit", build);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(a.get(), b.get());  // literally the same object

  EXPECT_THROW(
      (void)cached_graph("test/throws",
                         []() -> CsrGraph { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // A failed build must not poison the key.
  const auto c = cached_graph("test/throws", build);
  EXPECT_EQ(c->num_nodes, 1u);
  input_cache_clear();
}

}  // namespace
}  // namespace uvmsim
