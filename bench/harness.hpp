// Shared experiment harness for the figure-reproduction benches. Each bench
// binary reproduces one table/figure of the paper: it sweeps the relevant
// parameter, prints the paper-style normalized rows, and cites the paper's
// reported values for comparison (EXPERIMENTS.md records both).
#pragma once

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <uvmsim/uvmsim.hpp>

#include "report/table.hpp"

namespace uvmsim::bench {

/// Workload scale used by the figure benches. Large enough for stable
/// eviction dynamics (the device capacity must dwarf the warps' concurrent
/// sweep front — dozens of 2 MB chunks), small enough that the full
/// 8-workload x 4-policy sweeps finish in minutes.
inline constexpr double kScale = 1.0;

inline const std::vector<std::string>& regular_names() {
  static const std::vector<std::string> v{"backprop", "fdtd", "hotspot", "srad"};
  return v;
}
inline const std::vector<std::string>& irregular_names() {
  static const std::vector<std::string> v{"bfs", "nw", "ra", "sssp"};
  return v;
}

inline SimConfig make_cfg(PolicyKind policy, std::uint32_t ts = 8, std::uint64_t p = 8) {
  SimConfig cfg = scheme_config(policy);
  cfg.policy.static_threshold = ts;
  cfg.policy.migration_penalty = p;
  return cfg;
}

/// Describe one grid cell as a RunRequest (the batch engine's unit of work).
inline RunRequest make_request(const std::string& workload, const SimConfig& cfg,
                               double oversub, double scale = kScale) {
  RunRequest req;
  req.workload = workload;
  req.params.scale = scale;
  req.config = cfg;
  req.oversub = oversub;
  return req;
}

inline RunResult run(const std::string& workload, const SimConfig& cfg, double oversub,
                     double scale = kScale) {
  return run_request(make_request(workload, cfg, oversub, scale));
}

/// Execute a grid of requests on the parallel batch engine (jobs = 0 picks
/// hardware concurrency) and return the results in request order. The figure
/// benches assume every run succeeds, so any failure raises.
inline std::vector<RunResult> run_grid(const std::vector<RunRequest>& requests,
                                       unsigned jobs = 0) {
  BatchOptions opt;
  opt.jobs = jobs;
  BatchResult batch = run_batch(requests, opt);
  std::vector<RunResult> results;
  results.reserve(batch.entries.size());
  for (BatchEntry& e : batch.entries) {
    if (!e.ok())
      throw std::runtime_error("bench run failed (" + e.request.workload + "): " + e.error);
    results.push_back(std::move(e.result));
  }
  return results;
}

/// Pretty-printing helpers -------------------------------------------------

inline void print_header(const std::string& title, const std::string& note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("==============================================================\n");
}

inline void print_row_header(const std::vector<std::string>& series) {
  std::printf("%-10s", "workload");
  for (const auto& s : series) std::printf(" %14s", s.c_str());
  std::printf("\n");
}

inline void print_row(const std::string& workload, const std::vector<double>& values,
                      const char* fmt = "%14.2f") {
  std::printf("%-10s", workload.c_str());
  for (const double v : values) std::printf(fmt, v);
  std::printf("\n");
}

inline void print_percent_row(const std::string& workload, const std::vector<double>& values) {
  std::printf("%-10s", workload.c_str());
  for (const double v : values) std::printf(" %13.2f%%", v * 100.0);
  std::printf("\n");
}

/// Persist a result table as a CSV artifact next to the binary's cwd.
inline void save_csv(const Table& table, const std::string& filename) {
  std::ofstream out(filename);
  out << table.to_csv();
  std::printf("\n(measured rows also written to %s)\n", filename.c_str());
}

/// Paper-reported values for side-by-side printing.
inline void print_paper_reference(const std::string& what,
                                  const std::map<std::string, std::vector<double>>& rows,
                                  const std::vector<std::string>& series) {
  std::printf("\n--- paper reported (%s) ---\n", what.c_str());
  print_row_header(series);
  for (const auto& name : workload_names()) {
    const auto it = rows.find(name);
    if (it != rows.end()) print_row(name, it->second);
  }
}

}  // namespace uvmsim::bench
