// uvmsim-sweep: regenerate the paper's full evaluation grid as tidy CSV for
// downstream plotting, and slice the paper's grid figures out of it.
//
//   uvmsim-sweep --out results.csv [--scale 1.0] [--jobs N] [--quick]
//                [--metrics-dir DIR]
//
// Grid: 8 workloads x {Baseline, Always, Oversub, Adaptive}
//       x oversubscription {fits, 1.25, 1.50}
//       plus the Fig 4 ts sweep and Fig 8 penalty sweep at 125 %.
//
// When every run succeeds, it also writes twelve files to the current
// directory: Figs 1 and 4-8 (report/figures.hpp) as fig1_oversub_sensitivity,
// fig4_static_threshold, fig5_no_oversub, fig6_oversub_runtime, fig7_thrashing
// and fig8_penalty_sensitivity, each .csv and .log, as in artifacts/.
//
// Runs execute on the parallel batch engine (sim/runner.hpp). Rows are
// written in grid order after the batch completes, and every run is fully
// seeded by its request, so the CSV is byte-identical for any --jobs value.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <uvmsim/uvmsim.hpp>

#include "report/figures.hpp"
#include "report/run_csv.hpp"
#include "sweep_grid.hpp"

namespace {

using namespace uvmsim;

constexpr const char* kUsage =
    "usage: uvmsim-sweep [--out FILE] [--scale F] [--jobs N] [--quick]\n"
    "                    [--metrics-dir DIR]\n"
    "  --out FILE   output CSV path (default uvmsim_sweep.csv)\n"
    "  --scale F    workload footprint scale, F > 0 (default 1.0)\n"
    "  --jobs N     worker threads, N >= 1 (default: hardware concurrency)\n"
    "  --quick      cap scale at 0.2 for a fast smoke sweep\n"
    "  --metrics-dir DIR  also write one per-run metric time-series CSV per\n"
    "               grid entry into DIR; all series sample on the shared\n"
    "               clock (multiples of 100000 cycles) so rows align\n"
    "When every run succeeds, it also writes Figs 1 and 4-8 to the current\n"
    "directory, as <stem>.csv and <stem>.log each: fig1_oversub_sensitivity,\n"
    "fig4_static_threshold, fig5_no_oversub, fig6_oversub_runtime,\n"
    "fig7_thrashing and fig8_penalty_sensitivity.\n";

int usage_error(const char* flag, const char* value) {
  if (value != nullptr)
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, value);
  else
    std::fprintf(stderr, "missing value for %s\n", flag);
  std::fputs(kUsage, stderr);
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  if (std::ofstream(path) << text << std::flush) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "uvmsim_sweep.csv";
  std::string metrics_dir;
  double scale = 1.0;
  unsigned jobs = 0;  // 0 = hardware concurrency
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--out") {
      if (value == nullptr) return usage_error("--out", nullptr);
      out_path = argv[++i];
    } else if (arg == "--scale") {
      // Strict parse (sim/config_parse.hpp): atof would map garbage to 0.
      if (value == nullptr || !parse_double(value, scale) || scale <= 0.0)
        return usage_error("--scale", value);
      ++i;
    } else if (arg == "--jobs") {
      if (value == nullptr || !parse_unsigned(value, jobs) || jobs == 0 ||
          jobs > 1u << 20)
        return usage_error("--jobs", value);
      ++i;
    } else if (arg == "--metrics-dir") {
      if (value == nullptr) return usage_error("--metrics-dir", nullptr);
      metrics_dir = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::fputs(kUsage, stderr);
      return 2;
    }
  }
  if (quick) scale = std::min(scale, 0.2);

  if (!write_file(out_path, "")) return 1;  // fail before the sweep, not after it

  // The grid lives in tools/sweep_grid.hpp so the golden-output integration
  // test runs exactly these requests.
  const std::vector<RunRequest> grid = tools::build_sweep_grid(scale);

  BatchOptions opts;
  opts.jobs = jobs;
  opts.on_done = [](const BatchEntry&, std::size_t done, std::size_t) {
    std::printf("\r%zu runs...", done);
    std::fflush(stdout);
  };

  // One pre-allocated recorder per grid entry: each run samples its own
  // recorder on the worker thread (no sharing), and all series sit on the
  // shared clock (RunOptions::metrics_interval multiples) so rows align.
  std::vector<obs::MetricsRecorder> recorders;
  if (!metrics_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(metrics_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", metrics_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    recorders.resize(grid.size());
    opts.make_options = [&recorders](const RunRequest&, std::size_t index) {
      RunOptions ro;
      ro.metrics = &recorders[index];
      return ro;
    };
  }

  const BatchResult batch = run_batch(grid, opts);

  std::ostringstream out;
  write_run_csv_header(out);
  std::size_t written = 0;
  for (const BatchEntry& e : batch.entries) {
    if (!e.ok()) {
      std::fprintf(stderr, "\n%s (oversub %.2f): %s\n", e.request.workload.c_str(),
                   e.request.oversub, e.error.c_str());
      continue;
    }
    append_run_csv(out, e.request.workload, e.request.config, e.request.oversub, e.result);
    ++written;
  }
  if (!write_file(out_path, out.str())) return 1;

  std::printf("\nwrote %zu runs to %s (%u jobs, %.1f s wall)\n", written, out_path.c_str(),
              batch.jobs, batch.wall_ms / 1000.0);

  if (batch.all_ok()) {
    try {
      for (const FigureSpec& spec : figure_specs()) {
        const FigureFiles files = slice_figure(spec, batch.entries);
        if (!write_file(spec.stem + ".csv", files.csv) ||
            !write_file(spec.stem + ".log", files.log))
          return 1;
        std::printf("wrote %s.csv and %s.log\n", spec.stem.c_str(), spec.stem.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (!metrics_dir.empty()) {
    std::size_t series = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!batch.entries[i].ok()) continue;
      const RunRequest& req = grid[i];
      char name[256];
      std::snprintf(name, sizeof(name), "%03zu_%s_%s_%.4g.csv", i,
                    req.workload.c_str(), req.config.policy.resolved_slug().c_str(),
                    req.oversub);
      std::ofstream mout(std::filesystem::path(metrics_dir) / name);
      if (!mout) {
        std::fprintf(stderr, "cannot open %s/%s\n", metrics_dir.c_str(), name);
        return 1;
      }
      recorders[i].write_csv(mout);
      ++series;
    }
    std::printf("wrote %zu metric series to %s/\n", series, metrics_dir.c_str());
  }
  if (!batch.all_ok()) {
    std::fprintf(stderr, "%zu of %zu runs failed\n", batch.failed, batch.entries.size());
    return 1;
  }
  return 0;
}
