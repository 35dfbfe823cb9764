#include "report/variance.hpp"

#include <algorithm>
#include <cmath>

namespace uvmsim {

SampleStats summarize_samples(const std::vector<double>& samples) {
  SampleStats s;
  s.n = samples.size();
  if (samples.empty()) return s;

  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  if (samples.size() > 1) {
    double sq = 0.0;
    for (const double v : samples) sq += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(sq / static_cast<double>(samples.size() - 1));
  }
  return s;
}

}  // namespace uvmsim
