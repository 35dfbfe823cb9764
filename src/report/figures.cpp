#include "report/figures.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "obs/registry.hpp"
#include "report/table.hpp"

namespace uvmsim {

const std::vector<FigureSpec>& figure_specs() {
  using enum PolicyKind;
  static const FigureCell fits{kFirstTouch, 0.0}, base125{kFirstTouch, 1.25};
  // Figs 6 and 7: the four schemes at 125 %, paper defaults ts = p = 8.
  static const std::vector<FigureColumn> schemes125 = {
      {"baseline", "Baseline", base125},
      {"always", "Always", {kStaticAlways, 1.25}},
      {"oversub", "Oversub", {kStaticOversub, 1.25}},
      {"adaptive", "Adaptive", {kAdaptive, 1.25}}};
  static const std::vector<FigureSpec> specs = {
      {.stem = "fig1_oversub_sensitivity",
       .title = "Figure 1: runtime vs memory oversubscription (Baseline)",
       .note = "runtime normalized to the no-oversubscription run",
       .metric = "kernel_cycles", .norm = fits,
       .columns = {{"fits", "no-oversub", fits},
                   {"over125", "125%", base125},
                   {"over150", "150%", {kFirstTouch, 1.5}}},
       .paper_source = "Fig 1, GeForceGTX 1080 Ti hardware",
       .paper = {{"backprop", {1.0, 1.02, 1.32}}, {"fdtd", {1.0, 1.67, 1.89}},
                 {"hotspot", {1.0, 1.46, 1.55}},  {"srad", {1.0, 2.00, 2.11}},
                 {"bfs", {1.0, 4.46, 15.36}},     {"nw", {1.0, 1.59, 9.84}},
                 {"ra", {1.0, 15.22, 20.83}},     {"sssp", {1.0, 1.11, 1.48}}},
       .closing = "Note: paper Fig 1 is measured on real hardware; shapes (irregular >>\n"
                  "regular degradation) are the reproduction target, not absolute factors.\n"},
      {.stem = "fig4_static_threshold",
       .title = "Figure 4: sensitivity to the static access counter threshold",
       .note = "Always scheme, 125% oversubscription, normalized to ts=8",
       .metric = "kernel_cycles", .norm = {kStaticAlways, 1.25},
       .columns = {{"ts8", "ts=8", {kStaticAlways, 1.25}},
                   {"ts16", "ts=16", {kStaticAlways, 1.25, 16}},
                   {"ts32", "ts=32", {kStaticAlways, 1.25, 32}}},
       .paper_source = "Fig 4 (simulator)",
       .paper = {{"backprop", {1.0, 0.9973, 1.0200}}, {"fdtd", {1.0, 1.0313, 1.0349}},
                 {"hotspot", {1.0, 1.0020, 1.0064}},  {"srad", {1.0, 1.0046, 1.0105}},
                 {"bfs", {1.0, 0.9230, 0.9570}},      {"nw", {1.0, 1.0042, 1.0225}},
                 {"ra", {1.0, 0.9294, 0.9855}},       {"sssp", {1.0, 1.1002, 1.0692}}},
       .closing = "Expected shape: regular workloads are insensitive to ts; irregular\n"
                  "workloads move a few percent either way, input-dependently.\n"},
      {.stem = "fig5_no_oversub",
       .title = "Figure 5: no oversubscription",
       .note = "runtime normalized to Baseline (first-touch migration)",
       .metric = "kernel_cycles", .norm = fits,
       .columns = {{"baseline", "Baseline", fits},
                   {"always", "Always", {kStaticAlways, 0.0}},
                   {"adaptive", "Adaptive", {kAdaptive, 0.0}}},
       .paper_source = "Fig 5 (simulator), Always series; Adaptive ~= 1.00 everywhere",
       .paper = {{"backprop", {1.0, 0.9895, 1.0}}, {"fdtd", {1.0, 0.9913, 1.0}},
                 {"hotspot", {1.0, 1.0008, 1.0}},  {"srad", {1.0, 1.0001, 1.0}},
                 {"bfs", {1.0, 0.9429, 1.0}},      {"nw", {1.0, 1.0172, 1.0}},
                 {"ra", {1.0, 0.7687, 1.0}},       {"sssp", {1.0, 1.1099, 1.0}}},
       .closing = "Expected shape: Adaptive tracks Baseline (the dynamic threshold falls\n"
                  "back to first touch); Always is unpredictable on irregular workloads\n"
                  "(bfs/ra benefit, nw/sssp regress).\n"},
      {.stem = "fig6_oversub_runtime",
       .title = "Figure 6: runtime at 125% oversubscription (ts=8, p=8)",
       .note = "normalized to Baseline (first-touch + LRU)",
       .metric = "kernel_cycles", .norm = base125,
       .columns = schemes125, .paper_source = "Fig 6 (simulator)",
       .paper =
           {{"backprop", {1.0, 0.9962, 1.0002, 1.0050}}, {"fdtd", {1.0, 1.0068, 1.0052, 1.0077}},
            {"hotspot", {1.0, 0.9204, 0.9946, 1.0022}},  {"srad", {1.0, 1.0004, 1.0000, 1.0001}},
            {"bfs", {1.0, 0.8015, 0.9064, 0.7821}},      {"nw", {1.0, 1.0050, 0.9868, 0.6718}},
            {"ra", {1.0, 0.2437, 1.0000, 0.2177}},       {"sssp", {1.0, 0.7462, 0.7612, 0.4021}}},
       .closing = "Expected shape: regular ~= 1.00 under every scheme; Adaptive is the\n"
                  "best (or tied best) scheme on every irregular workload, 22-78% faster\n"
                  "than Baseline.\n"},
      {.stem = "fig7_thrashing",
       .title = "Figure 7: pages thrashed at 125% oversubscription (ts=8, p=8)",
       .note = "normalized to Baseline; absolute Baseline count in last column",
       .metric = "pages_thrashed", .norm = base125,
       .columns = schemes125, .raw_csv = "base_pages", .raw_label = "base-pages",
       .paper_source = "Fig 7 (simulator)",
       .paper =
           {{"backprop", {0.0, 0.0, 0.0, 0.0}},          {"fdtd", {1.0, 1.0000, 1.0000, 0.9991}},
            {"hotspot", {1.0, 0.9333, 1.0167, 1.0000}},  {"srad", {1.0, 1.0000, 1.0000, 1.0000}},
            {"bfs", {1.0, 0.6917, 0.8150, 0.6301}},      {"nw", {1.0, 0.9753, 0.9753, 0.7132}},
            {"ra", {1.0, 0.1667, 1.0000, 0.1014}},       {"sssp", {1.0, 0.6429, 0.6786, 0.2143}}},
       .closing = "Expected shape: backprop never thrashes (no reuse); regular thrash is\n"
                  "unchanged by the schemes; Adaptive cuts irregular thrash the most.\n"},
      {.stem = "fig8_penalty_sensitivity",
       .title = "Figure 8: sensitivity to the multiplicative migration penalty",
       .note = "Adaptive at 125% oversubscription, normalized to Baseline",
       .metric = "kernel_cycles", .norm = base125,
       .columns = {{"baseline", "Baseline", base125},
                   {"p2", "p=2", {kAdaptive, 1.25, 8, 2}},
                   {"p4", "p=4", {kAdaptive, 1.25, 8, 4}},
                   {"p8", "p=8", {kAdaptive, 1.25, 8, 8}},
                   {"p1048576", "p=1048576", {kAdaptive, 1.25, 8, 1048576}}},
       .paper_source = "Fig 8 (simulator)",
       .paper = {{"backprop", {1.0, 1.0008, 1.0022, 1.0050, 1.7407}},
                 {"fdtd", {1.0, 1.0027, 0.9994, 1.0077, 0.9073}},
                 {"hotspot", {1.0, 0.9998, 1.0237, 1.0022, 1.3965}},
                 {"srad", {1.0, 1.0001, 1.0001, 1.0001, 2.3838}},
                 {"bfs", {1.0, 0.8360, 0.7872, 0.7821, 1.0020}},
                 {"nw", {1.0, 0.9229, 0.8419, 0.6718, 0.0604}},
                 {"ra", {1.0, 0.2903, 0.1951, 0.2177, 0.1355}},
                 {"sssp", {1.0, 0.6446, 0.5135, 0.4021, 0.2855}}},
       .closing = "Expected shape: regular workloads are flat for p in 2..8 but suffer\n"
                  "under extreme pinning (dense access over PCIe); irregular workloads\n"
                  "improve monotonically with p in 2..8.\n"},
  };
  return specs;
}

namespace {

std::string describe(const std::string& workload, const FigureCell& c) {
  std::ostringstream os;
  os << workload << '/' << policy_slug(c.policy) << " at oversub " << c.oversub << ", ts "
     << c.ts << ", p " << c.p;
  return os.str();
}

/// The metric of `workload`'s run in `cell`: the first sweep entry with the
/// cell's paper scheme and parameters.
std::uint64_t cell_metric(const FigureSpec& spec, std::span<const BatchEntry> sweep,
                          const std::string& workload, const FigureCell& cell,
                          const obs::MetricDesc& metric) {
  for (const BatchEntry& e : sweep) {
    const PolicyConfig& p = e.request.config.policy;
    if (e.request.workload != workload || !p.slug.empty() || p.policy != cell.policy ||
        e.request.oversub != cell.oversub || p.static_threshold != cell.ts ||
        p.migration_penalty != cell.p)
      continue;
    if (!e.ok())
      throw std::runtime_error(spec.stem + ": sweep run " + describe(workload, cell) +
                               " failed: " + e.error);
    return obs::value(e.result.stats, metric);
  }
  throw std::runtime_error(spec.stem + ": no sweep run for " + describe(workload, cell));
}

}  // namespace

FigureFiles slice_figure(const FigureSpec& spec, std::span<const BatchEntry> sweep) {
  const obs::MetricDesc* metric = obs::find_metric(spec.metric);
  if (metric == nullptr) throw std::invalid_argument(spec.stem + ": no metric " + spec.metric);
  const bool raw = !spec.raw_csv.empty();
  std::vector<std::string> headers{"workload"}, labels;
  for (const FigureColumn& col : spec.columns) {
    headers.push_back(col.csv);
    labels.push_back(col.label);
  }
  std::vector<std::string> measured = labels;
  if (raw) {
    headers.push_back(spec.raw_csv);
    measured.push_back(spec.raw_label);
  }
  Table csv(std::move(headers));
  std::string log = format_header(spec.title, spec.note) + format_row_header(measured);
  std::vector<std::string> workloads;  // sweep order
  for (const BatchEntry& e : sweep) {
    const std::string& name = e.request.workload;
    if (std::find(workloads.begin(), workloads.end(), name) != workloads.end()) continue;
    workloads.push_back(name);
    const std::uint64_t norm_raw = cell_metric(spec, sweep, name, spec.norm, *metric);
    const auto norm = static_cast<double>(norm_raw);
    std::vector<double> cells;
    for (const FigureColumn& col : spec.columns) {
      const auto v = static_cast<double>(cell_metric(spec, sweep, name, col.cell, *metric));
      cells.push_back(norm == 0 ? 0.0 : v / norm);
    }
    csv.row().cell(name);
    for (const double v : cells) csv.cell(v);
    if (raw) {
      csv.cell(norm_raw);
      cells.push_back(norm);
    }
    log += format_row(name, cells);
  }
  log += "\n(measured rows also written to " + spec.stem + ".csv)\n";
  log += "\n--- paper reported (" + spec.paper_source + ") ---\n" + format_row_header(labels);
  for (const PaperRow& row : spec.paper) log += format_row(row.workload, row.values);
  return {csv.to_csv(), log + '\n' + spec.closing};
}

std::string format_header(std::string_view title, std::string_view note) {
  const std::string rule(62, '=');
  std::string out = rule + '\n';
  out.append(title) += '\n';
  if (!note.empty()) out.append(note) += '\n';
  return out + rule + '\n';
}

std::string format_row_header(const std::vector<std::string>& series) {
  std::ostringstream os;
  os << std::left << std::setw(10) << "workload" << std::right;
  for (const std::string& s : series) os << ' ' << std::setw(14) << s;
  os << '\n';
  return os.str();
}

std::string format_row(std::string_view workload, const std::vector<double>& values) {
  std::ostringstream os;
  os << std::left << std::setw(10) << workload << std::right << std::fixed
     << std::setprecision(2);
  for (const double v : values) os << std::setw(14) << v;
  os << '\n';
  return os.str();
}

}  // namespace uvmsim
