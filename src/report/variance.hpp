// Multi-seed statistics: irregular workloads are input-dependent (random
// graphs, random tables), so any reported factor should come with its
// spread. Summarizes a sample (say, one ratio over N workload seeds) as
// mean / stddev / min / max.
#pragma once

#include <cstddef>
#include <vector>

namespace uvmsim {

struct SampleStats {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;

  [[nodiscard]] double cv() const noexcept { return mean == 0.0 ? 0.0 : stddev / mean; }
};

/// Summary statistics over a sample (empty input -> zeros).
[[nodiscard]] SampleStats summarize_samples(const std::vector<double>& samples);

}  // namespace uvmsim
