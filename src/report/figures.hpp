// The paper's grid figures (Figs 1 and 4-8) as slices of one evaluation
// sweep. Each figure is a table entry: the sweep cells of its columns, the
// cell that normalises them, and the paper's reported rows. uvmsim-sweep
// writes each as <stem>.csv and <stem>.log; at scale 1.0 they are artifacts/.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/runner.hpp"

namespace uvmsim {

/// A paper scheme at an oversubscription (0 = fits) with its ts and p.
struct FigureCell {
  PolicyKind policy;
  double oversub;
  std::uint32_t ts = 8;
  std::uint64_t p = 8;
};

struct FigureColumn {
  std::string csv;    ///< CSV header
  std::string label;  ///< .log label
  FigureCell cell;
};

struct PaperRow {
  std::string workload;
  std::vector<double> values;  ///< one per column
};

struct FigureSpec {
  std::string stem, title, note;
  std::string metric;  ///< registry name: kernel_cycles or pages_thrashed
  FigureCell norm;     ///< every column's metric is divided by this cell's
  std::vector<FigureColumn> columns;
  /// When set, a last column holds the normalising cell's raw metric (Fig 7's
  /// Baseline page count): its CSV header and .log label.
  std::string raw_csv{}, raw_label{};
  std::string paper_source;  ///< what the paper's rows were measured on
  std::vector<PaperRow> paper;
  std::string closing;  ///< the note that ends the .log
};

/// Figs 1, 4, 5, 6, 7 and 8, in that order.
[[nodiscard]] const std::vector<FigureSpec>& figure_specs();

struct FigureFiles {
  std::string csv;  ///< the workload, then each cell at %.3f
  std::string log;  ///< the banner, the measured rows, the paper's rows, the note
};

/// Slice `spec` out of a sweep: one row per workload, in the order the
/// workloads first appear in `sweep`. A cell is the metric of the first entry
/// with its workload, paper scheme, oversub, ts and p, over the normalising
/// cell's (0 when that reads 0). A missing or failed cell throws
/// std::runtime_error naming the figure and the cell.
[[nodiscard]] FigureFiles slice_figure(const FigureSpec& spec, std::span<const BatchEntry> sweep);

/// The .log's text pieces, which the ablation benches print too: a banner
/// between two rules, a "workload" header over `%14s` labels, and a `%-10s`
/// name followed by `%14.2f` values.
[[nodiscard]] std::string format_header(std::string_view title, std::string_view note);
[[nodiscard]] std::string format_row_header(const std::vector<std::string>& series);
[[nodiscard]] std::string format_row(std::string_view workload,
                                     const std::vector<double>& values);

}  // namespace uvmsim
