// Per-interval time-series recorder over the metric registry — the
// simulator's one periodic sampler. It snapshots *every* registered SimStats
// metric (obs/metrics.def) plus the device occupancy gauges, so a new metric
// shows up in the time series without any recorder change.
//
// Sampling is driven by Simulator::run (RunOptions::metrics): samples land at
// absolute multiples of the sampling interval — a shared clock — so the
// series of every entry in a run_batch() align row-by-row and can be compared
// or aggregated without resampling. The sampler only observes: it schedules
// no events, so an observed run's SimStats equal the unobserved run's.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/registry.hpp"
#include "sim/types.hpp"

namespace uvmsim::obs {

class MetricsRecorder {
 public:
  struct Sample {
    Cycle cycle = 0;
    std::uint64_t used_blocks = 0;      ///< device occupancy gauge
    std::uint64_t capacity_blocks = 0;
    /// Cumulative value of every registered metric, registry order.
    std::array<std::uint64_t, kMetricCount> values{};

    [[nodiscard]] double occupancy() const noexcept {
      return capacity_blocks == 0 ? 0.0
                                  : static_cast<double>(used_blocks) /
                                        static_cast<double>(capacity_blocks);
    }
  };

  /// Record one snapshot of `stats` (plus the occupancy gauges) at `now`.
  void sample(Cycle now, const SimStats& stats, std::uint64_t used_blocks,
              std::uint64_t capacity_blocks);

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }

  /// CSV: cycle,occupancy,used_blocks,capacity_blocks, then for every
  /// registered metric its cumulative column `<name>` and per-interval
  /// column `<name>_delta` (delta vs the previous sample; first row equals
  /// the cumulative value). Column names come from the registry.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace uvmsim::obs
