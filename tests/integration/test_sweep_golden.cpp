// Golden-output regression for the full evaluation sweep: the grid built by
// tools/sweep_grid.hpp, run through the batch engine at scale 0.05, must
// produce a CSV byte-identical to the checked-in capture
// (tests/data/sweep_golden_scale005.csv) — and identical across --jobs
// values. This pins the hot-path overhaul (incremental eviction index, 4-ary
// event kernel) to the exact victim/fault/cycle numbers of the original
// scan-based implementation.
//
// Schema note: the capture was regenerated when the metric registry
// (src/obs/metrics.def) unified reporting. The CSV gained appended columns
// (peer_accesses .. audit_violations, registry schema v2); the original 27
// leading columns were verified byte-identical to the pre-registry capture
// before re-recording, so the simulated numbers themselves are unchanged.
// Regenerated again for registry schema v3 (appended chunk_coalesces,
// chunk_splinters, chunk_coalesced_evictions — all zero here because
// mem.coalescing defaults off, docs/GRANULARITY.md); the v2 columns were
// again verified byte-identical before re-recording.
//
// The metrics variant attaches a MetricsRecorder to every entry, the way
// `uvmsim-sweep --metrics-dir` does: observation must not move any number.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include <uvmsim/uvmsim.hpp>

#include "../../tools/sweep_grid.hpp"
#include "report/run_csv.hpp"

namespace uvmsim {
namespace {

constexpr double kScale = 0.05;

std::string read_golden() {
  const std::string path = std::string(UVMSIM_TEST_DATA_DIR) + "/sweep_golden_scale005.csv";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string run_sweep_csv(unsigned jobs, bool with_metrics = false) {
  const std::vector<RunRequest> grid = tools::build_sweep_grid(kScale);
  BatchOptions opts;
  opts.jobs = jobs;
  std::vector<obs::MetricsRecorder> recorders(grid.size());
  if (with_metrics) {
    opts.make_options = [&recorders](const RunRequest&, std::size_t index) {
      RunOptions ro;
      ro.metrics = &recorders[index];
      return ro;
    };
  }
  const BatchResult batch = run_batch(grid, opts);
  for (const obs::MetricsRecorder& rec : recorders)
    EXPECT_EQ(rec.samples().empty(), !with_metrics);
  EXPECT_TRUE(batch.all_ok()) << batch.failed << " of " << batch.entries.size()
                              << " runs failed";
  std::ostringstream out;
  write_run_csv_header(out);
  for (const BatchEntry& e : batch.entries) {
    if (!e.ok()) continue;
    append_run_csv(out, e.request.workload, e.request.config, e.request.oversub, e.result);
  }
  return out.str();
}

TEST(SweepGolden, SingleJobMatchesPreOverhaulCapture) {
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty());
  const std::string fresh = run_sweep_csv(1);
  ASSERT_EQ(fresh.size(), golden.size()) << "CSV length diverged from golden";
  EXPECT_TRUE(fresh == golden) << "CSV bytes diverged from golden capture";
}

TEST(SweepGolden, ParallelJobsMatchPreOverhaulCapture) {
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty());
  const std::string fresh = run_sweep_csv(2);
  ASSERT_EQ(fresh.size(), golden.size()) << "CSV length diverged from golden";
  EXPECT_TRUE(fresh == golden) << "CSV bytes diverged from golden capture";
}

TEST(SweepGolden, MetricsRecorderLeavesCaptureUnchanged) {
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty());
  const std::string fresh = run_sweep_csv(2, /*with_metrics=*/true);
  ASSERT_EQ(fresh.size(), golden.size()) << "CSV length diverged from golden";
  EXPECT_TRUE(fresh == golden) << "CSV bytes diverged from golden capture";
}

}  // namespace
}  // namespace uvmsim
