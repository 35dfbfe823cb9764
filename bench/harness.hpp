// Shared helpers for the ablation and extension benches: run_grid(), which runs
// a table on the batch engine, and the text rows they print, which are the rows
// of the figure logs. The paper's grid figures (Figs 1 and 4-8) do not run here:
// uvmsim-sweep slices them out of its evaluation grid (report/figures.hpp).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <uvmsim/uvmsim.hpp>

namespace uvmsim::bench {

/// Workload scale of the benches, the figures' scale (uvmsim-sweep's default).
/// Large enough for stable eviction dynamics (the device capacity must dwarf
/// the warps' concurrent sweep front — dozens of 2 MB chunks), small enough
/// that an 8-workload x 4-policy grid finishes in minutes.
inline constexpr double kScale = 1.0;

inline const std::vector<std::string>& irregular_names() {
  static const std::vector<std::string> v{"bfs", "nw", "ra", "sssp"};
  return v;
}

inline WorkloadParams params_at(double scale) {
  WorkloadParams params;
  params.scale = scale;
  return params;
}

/// One column of a table: everything about a cell's run except its workload.
struct Column {
  SimConfig config;
  double oversub = 0.0;
  WorkloadParams params = params_at(kScale);
};

/// One table row: a workload's results, one per column.
struct Row {
  std::string workload;
  std::vector<RunResult> cells;
};

/// Runs every workload x column cell on run_batch() at the engine's default
/// job count and returns one row per workload, in order. `observe` builds a
/// cell's RunOptions (see BatchOptions::make_options). A failed run prints
/// its error and exits 1.
inline std::vector<Row> run_grid(
    const std::vector<std::string>& workloads, const std::vector<Column>& columns,
    const std::function<RunOptions(std::size_t row, std::size_t column)>& observe = {}) {
  std::vector<RunRequest> requests;
  std::vector<Row> rows;
  for (const std::string& workload : workloads) {
    for (const Column& c : columns) {
      requests.push_back({workload, c.params, c.config, c.oversub, "", nullptr});
    }
    rows.push_back({workload, {}});
  }
  BatchOptions opts;
  opts.make_options = [&](const RunRequest&, std::size_t i) {
    return observe ? observe(i / columns.size(), i % columns.size()) : RunOptions{};
  };
  BatchResult batch = run_batch(requests, opts);

  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    BatchEntry& entry = batch.entries[i];
    if (!entry.ok()) {
      std::fprintf(stderr, "%s, column %zu: %s\n", entry.request.workload.c_str(),
                   i % columns.size(), entry.error.c_str());
      std::exit(1);
    }
    rows[i / columns.size()].cells.push_back(std::move(entry.result));
  }
  return rows;
}

inline double cycles(const RunResult& r) { return static_cast<double>(r.stats.kernel_cycles); }

/// Writes `sink`'s CSV to `path`; on failure names the path and exits 1.
template <class Sink>
void write_csv(const std::string& path, const Sink& sink) {
  std::ofstream out(path);
  sink.write_csv(out);
  if (!(out << std::flush)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

inline void print_header(const std::string& title, const std::string& note) {
  std::fputs(format_header(title, note).c_str(), stdout);
}

inline void print_row_header(const std::vector<std::string>& series) {
  std::fputs(format_row_header(series).c_str(), stdout);
}

inline void print_row(const std::string& workload, const std::vector<double>& values) {
  std::fputs(format_row(workload, values).c_str(), stdout);
}

}  // namespace uvmsim::bench
