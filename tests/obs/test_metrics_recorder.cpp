// MetricsRecorder: registry-complete time series on the shared clock. The
// load-bearing properties are alignment — samples land at absolute multiples
// of the interval, so every entry of a run_batch() produces row-comparable
// series without resampling — and purity: attaching a recorder leaves the
// run's SimStats bit-identical.
#include "obs/metrics_recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/simulator.hpp"
#include "obs/registry.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

TEST(MetricsRecorder, CapturesEveryRegisteredMetric) {
  SimStats s;
  std::uint64_t i = 0;
  for (const obs::MetricDesc& d : obs::metrics()) obs::value(s, d) = ++i;

  obs::MetricsRecorder rec;
  rec.sample(500, s, 8, 32);
  ASSERT_EQ(rec.samples().size(), 1u);
  const auto& sample = rec.samples().front();
  EXPECT_EQ(sample.cycle, 500u);
  EXPECT_DOUBLE_EQ(sample.occupancy(), 0.25);
  i = 0;
  for (std::size_t m = 0; m < obs::kMetricCount; ++m) EXPECT_EQ(sample.values[m], ++i);
}

TEST(MetricsRecorder, OccupancyComputation) {
  obs::MetricsRecorder::Sample s;
  s.used_blocks = 16;
  s.capacity_blocks = 32;
  EXPECT_DOUBLE_EQ(s.occupancy(), 0.5);
  s.capacity_blocks = 0;
  EXPECT_DOUBLE_EQ(s.occupancy(), 0.0);
}

TEST(MetricsRecorder, CsvHeaderComesFromTheRegistry) {
  obs::MetricsRecorder rec;
  rec.sample(0, SimStats{}, 0, 0);
  std::ostringstream os;
  rec.write_csv(os);
  const std::string csv = os.str();
  std::istringstream in(csv);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("cycle,occupancy,used_blocks,capacity_blocks,", 0), 0u);
  for (const obs::MetricDesc& d : obs::metrics()) {
    EXPECT_NE(header.find(std::string(",") + d.name + ","), std::string::npos) << d.name;
    EXPECT_NE(header.find(std::string(d.name) + "_delta"), std::string::npos) << d.name;
  }
}

TEST(MetricsRecorder, DeltasAreDifferencesBetweenConsecutiveSamples) {
  SimStats s;
  s.far_faults = 10;
  obs::MetricsRecorder rec;
  rec.sample(0, s, 0, 4);
  s.far_faults = 25;
  rec.sample(100, s, 1, 4);

  std::ostringstream os;
  rec.write_csv(os);
  std::istringstream in(os.str());
  std::string header, row0, row1;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row0));
  ASSERT_TRUE(std::getline(in, row1));

  // Locate the far_faults cumulative/delta column pair via the header.
  std::vector<std::string> cols;
  {
    std::istringstream h(header);
    std::string c;
    while (std::getline(h, c, ',')) cols.push_back(c);
  }
  std::size_t cum_idx = cols.size();
  for (std::size_t i = 0; i < cols.size(); ++i)
    if (cols[i] == "far_faults") cum_idx = i;
  ASSERT_LT(cum_idx, cols.size());
  ASSERT_EQ(cols[cum_idx + 1], "far_faults_delta");

  auto cell = [](const std::string& row, std::size_t idx) {
    std::istringstream r(row);
    std::string c;
    for (std::size_t i = 0; i <= idx; ++i) std::getline(r, c, ',');
    return c;
  };
  EXPECT_EQ(cell(row0, cum_idx), "10");
  EXPECT_EQ(cell(row0, cum_idx + 1), "10");  // first row: delta == cumulative
  EXPECT_EQ(cell(row1, cum_idx), "25");
  EXPECT_EQ(cell(row1, cum_idx + 1), "15");
}

TEST(MetricsRecorder, SimulatorSamplesOnAbsoluteIntervalMultiples) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;

  auto wl = make_workload("fdtd", params);
  obs::MetricsRecorder rec;
  Simulator sim(cfg);
  RunOptions opts;
  opts.metrics = &rec;
  opts.metrics_interval = 40000;
  const RunResult r = sim.run(*wl, opts);

  ASSERT_GT(rec.samples().size(), 2u);
  Cycle prev = 0;
  for (std::size_t i = 0; i < rec.samples().size(); ++i) {
    const auto& s = rec.samples()[i];
    EXPECT_EQ(s.cycle % 40000, 0u) << "sample off the shared clock at index " << i;
    if (i > 0) {
      EXPECT_GT(s.cycle, prev);
    }
    prev = s.cycle;
  }
  // Counters are cumulative, hence monotone, and bounded by the run totals.
  for (std::size_t m = 0; m < obs::kMetricCount; ++m) {
    for (std::size_t i = 1; i < rec.samples().size(); ++i)
      EXPECT_GE(rec.samples()[i].values[m], rec.samples()[i - 1].values[m]);
    EXPECT_LE(rec.samples().back().values[m],
              obs::value(r.stats, obs::metrics()[m]))
        << obs::metrics()[m].name;
  }
}

TEST(MetricsRecorder, SimulatorSamplesPeriodically) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;

  auto wl = make_workload("fdtd", params);
  obs::MetricsRecorder rec;
  Simulator sim(cfg);
  RunOptions opts;
  opts.metrics = &rec;
  opts.metrics_interval = 50000;
  const RunResult r = sim.run(*wl, opts);

  ASSERT_GT(rec.samples().size(), 2u);
  // One row per boundary from cycle 0 on: none skipped, none repeated.
  EXPECT_EQ(rec.samples().front().cycle, 0u);
  for (std::size_t i = 1; i < rec.samples().size(); ++i) {
    EXPECT_EQ(rec.samples()[i].cycle - rec.samples()[i - 1].cycle, 50000u)
        << "boundary skipped before index " << i;
  }
  // The last row is the drained state at the first boundary past the last
  // event; occupancy by then reflects the migrated working set.
  EXPECT_GT(rec.samples().back().cycle, r.stats.total_cycles);
  EXPECT_LE(rec.samples().back().cycle - 50000, r.stats.total_cycles);
  EXPECT_GT(rec.samples().back().used_blocks, 0u);
}

TEST(MetricsRecorder, ShowsMemoryFillingUp) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  cfg.mem.oversubscription = 1.25;

  auto wl = make_workload("ra", params);
  obs::MetricsRecorder rec;
  Simulator sim(cfg);
  RunOptions opts;
  opts.metrics = &rec;
  opts.metrics_interval = 50000;
  (void)sim.run(*wl, opts);

  ASSERT_GT(rec.samples().size(), 2u);
  EXPECT_LT(rec.samples().front().occupancy(), 0.5);
  EXPECT_GT(rec.samples().back().occupancy(), 0.9);  // full under pressure
}

// The sampler observes without side effects: the same oversubscribed run
// with and without a recorder ends with bit-identical SimStats, down to
// total_cycles (a sampler that queued its own events would move it).
TEST(MetricsRecorder, LeavesStatsBitIdentical) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  cfg.mem.oversubscription = 1.25;
  cfg.mem.eviction = EvictionKind::kLfu;
  cfg.policy.policy = PolicyKind::kAdaptive;

  for (const Cycle interval : {Cycle{1000}, Cycle{100000}, Cycle{1} << 40}) {
    SCOPED_TRACE(interval);
    const RunResult plain = Simulator(cfg).run(*make_workload("bfs", params));
    obs::MetricsRecorder rec;
    RunOptions opts;
    opts.metrics = &rec;
    opts.metrics_interval = interval;
    const RunResult observed = Simulator(cfg).run(*make_workload("bfs", params), opts);
    EXPECT_TRUE(observed.stats == plain.stats)
        << "total_cycles " << observed.stats.total_cycles << " vs "
        << plain.stats.total_cycles;
    EXPECT_FALSE(rec.samples().empty());
  }
}

TEST(MetricsRecorder, BatchEntriesShareTheSamplingClock) {
  std::vector<RunRequest> grid(2);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].workload = i == 0 ? "fdtd" : "ra";
    grid[i].params.scale = 0.05;
    grid[i].config.gpu.num_sms = 4;
    grid[i].config.gpu.warps_per_sm = 2;
  }

  std::vector<obs::MetricsRecorder> recorders(grid.size());
  BatchOptions opts;
  opts.jobs = 2;
  opts.make_options = [&recorders](const RunRequest&, std::size_t index) {
    RunOptions ro;
    ro.metrics = &recorders[index];
    ro.metrics_interval = 50000;
    return ro;
  };
  const BatchResult batch = run_batch(grid, opts);
  ASSERT_TRUE(batch.all_ok());

  // Different workloads, same clock: row k of every series sits at the same
  // cycle, so the series align without resampling.
  for (const obs::MetricsRecorder& rec : recorders) ASSERT_GT(rec.samples().size(), 1u);
  const std::size_t rows =
      std::min(recorders[0].samples().size(), recorders[1].samples().size());
  for (std::size_t k = 0; k < rows; ++k)
    EXPECT_EQ(recorders[0].samples()[k].cycle, recorders[1].samples()[k].cycle) << k;
}

TEST(MetricsRecorder, ZeroIntervalIsRejected) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  cfg.gpu.num_sms = 4;
  cfg.gpu.warps_per_sm = 2;
  auto wl = make_workload("fdtd", params);
  obs::MetricsRecorder rec;
  Simulator sim(cfg);
  RunOptions opts;
  opts.metrics = &rec;
  opts.metrics_interval = 0;
  EXPECT_THROW((void)sim.run(*wl, opts), CheckFailure);
}

}  // namespace
}  // namespace uvmsim
