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
//
// The figure tests check the grid figures (report/figures.hpp) that
// uvmsim-sweep slices out of the same sweep: every cell is the ratio of the
// two golden rows the figure table names, and a missing or failed cell is an
// error that names it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <uvmsim/uvmsim.hpp>

#include "../../tools/sweep_grid.hpp"
#include "report/figures.hpp"
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

using CsvRows = std::vector<std::vector<std::string>>;

CsvRows parse_csv(const std::string& text) {
  CsvRows rows;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    rows.emplace_back();
    for (std::string field; std::getline(fields, field, ',');) rows.back().push_back(field);
  }
  return rows;
}

const FigureSpec& spec_named(const std::string& stem) {
  for (const FigureSpec& spec : figure_specs())
    if (spec.stem == stem) return spec;
  throw std::invalid_argument("no figure " + stem);
}

TEST(SweepGolden, FigureCellsAreRatiosOfGoldenRows) {
  const CsvRows golden = parse_csv(read_golden());
  ASSERT_GT(golden.size(), 1u);
  auto col = [&](const std::string& name) {
    const auto it = std::find(golden[0].begin(), golden[0].end(), name);
    EXPECT_NE(it, golden[0].end()) << "golden has no column " << name;
    return static_cast<std::size_t>(it - golden[0].begin());
  };
  std::vector<std::string> workloads;  // golden order, which the figures keep
  for (std::size_t r = 1; r < golden.size(); ++r)
    if (std::find(workloads.begin(), workloads.end(), golden[r][0]) == workloads.end())
      workloads.push_back(golden[r][0]);
  // The golden row of `workload` in `cell`, read from the golden's own text.
  auto golden_row = [&](const std::string& workload,
                        const FigureCell& cell) -> const std::vector<std::string>& {
    for (std::size_t r = 1; r < golden.size(); ++r) {
      const std::vector<std::string>& row = golden[r];
      if (row[col("workload")] == workload && row[col("policy")] == policy_slug(cell.policy) &&
          std::stoul(row[col("ts")]) == cell.ts && std::stoull(row[col("penalty")]) == cell.p &&
          std::stod(row[col("oversub")]) == cell.oversub)
        return row;
    }
    throw std::invalid_argument("golden has no row for " + workload);
  };

  BatchOptions opts;
  opts.jobs = 2;
  const BatchResult batch = run_batch(tools::build_sweep_grid(kScale), opts);
  ASSERT_TRUE(batch.all_ok());
  for (const FigureSpec& spec : figure_specs()) {
    SCOPED_TRACE(spec.stem);
    const CsvRows fig = parse_csv(slice_figure(spec, batch.entries).csv);
    ASSERT_EQ(fig.size(), workloads.size() + 1);
    const std::size_t metric = col(spec.metric);
    for (std::size_t r = 1; r < fig.size(); ++r) {
      const std::string& workload = fig[r][0];
      EXPECT_EQ(workload, workloads[r - 1]);
      ASSERT_EQ(fig[r].size(), 1 + spec.columns.size() + (spec.raw_csv.empty() ? 0 : 1));
      const std::vector<std::string>& norm_row = golden_row(workload, spec.norm);
      const double norm = std::stod(norm_row[metric]);
      for (std::size_t c = 0; c < spec.columns.size(); ++c) {
        const double v = std::stod(golden_row(workload, spec.columns[c].cell)[metric]);
        char want[32];
        std::snprintf(want, sizeof want, "%.3f", norm == 0 ? 0.0 : v / norm);
        EXPECT_EQ(fig[r][c + 1], want) << workload << ", column " << spec.columns[c].csv;
      }
      // Fig 7's base_pages: the Baseline run's raw pages_thrashed.
      if (!spec.raw_csv.empty()) {
        EXPECT_EQ(fig[r].back(), norm_row[metric]) << workload;
      }
    }
  }
}

TEST(SweepGolden, SlicerNamesAMissingOrFailedCell) {
  // Slicing reads only requests, errors and stats, so no run is needed.
  std::vector<BatchEntry> sweep;
  for (const RunRequest& req : tools::build_sweep_grid(kScale)) {
    BatchEntry e;
    e.request = req;
    e.result.stats.kernel_cycles = sweep.size() + 1;
    sweep.push_back(std::move(e));
  }
  for (const FigureSpec& spec : figure_specs()) EXPECT_NO_THROW((void)slice_figure(spec, sweep));

  auto find = [](std::vector<BatchEntry>& entries, const std::string& workload,
                 PolicyKind policy, double oversub) {
    return std::find_if(entries.begin(), entries.end(), [&](const BatchEntry& e) {
      const PolicyConfig& p = e.request.config.policy;
      return e.request.workload == workload && p.policy == policy &&
             e.request.oversub == oversub && p.static_threshold == 8 &&
             p.migration_penalty == 8;
    });
  };
  auto error_of = [](const std::string& stem, const std::vector<BatchEntry>& entries) {
    try {
      (void)slice_figure(spec_named(stem), entries);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };

  std::vector<BatchEntry> dropped = sweep;
  const auto bfs_adaptive = find(dropped, "bfs", PolicyKind::kAdaptive, 1.25);
  ASSERT_NE(bfs_adaptive, dropped.end());
  dropped.erase(bfs_adaptive);
  const std::string missing = error_of("fig6_oversub_runtime", dropped);
  EXPECT_NE(missing.find("no sweep run for bfs/adaptive at oversub 1.25, ts 8, p 8"),
            std::string::npos)
      << missing;

  std::vector<BatchEntry> failed = sweep;
  const auto ra_fits = find(failed, "ra", PolicyKind::kFirstTouch, 0.0);
  ASSERT_NE(ra_fits, failed.end());
  ra_fits->error = "injected failure";
  const std::string failure = error_of("fig1_oversub_sensitivity", failed);
  EXPECT_NE(failure.find("sweep run ra/baseline at oversub 0, ts 8, p 8 failed: injected failure"),
            std::string::npos)
      << failure;
}

}  // namespace
}  // namespace uvmsim
