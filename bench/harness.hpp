// Shared helpers for the ablation and extension benches: a single-run
// shorthand and the text rows they print, which are the rows of the figure
// logs. The paper's grid figures (Figs 1 and 4-8) do not run here:
// uvmsim-sweep slices them out of its evaluation grid (report/figures.hpp).
#pragma once

#include <cstdio>
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

inline RunResult run(const std::string& workload, const SimConfig& cfg, double oversub) {
  WorkloadParams params;
  params.scale = kScale;
  return run_workload(workload, cfg, oversub, params);
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
