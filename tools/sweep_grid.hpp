// The paper's full evaluation grid (uvmsim-sweep's run list), factored out so
// the sweep tool and the golden-output integration test build the *same*
// requests: 8 workloads x {Baseline, Always, Oversub, Adaptive} x
// oversubscription {fits, 1.25, 1.50}, plus the Fig 4 ts sweep and the Fig 8
// penalty sweep at 125 %. Rows are emitted in this grid order.
#pragma once

#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace uvmsim::tools {

inline std::vector<RunRequest> build_sweep_grid(double scale) {
  WorkloadParams params;
  params.scale = scale;

  std::vector<RunRequest> grid;
  auto add = [&](const std::string& name, const SimConfig& cfg, double oversub) {
    RunRequest req;
    req.workload = name;
    req.params = params;
    req.config = cfg;
    req.oversub = oversub;
    grid.push_back(std::move(req));
  };

  for (const auto& name : workload_names()) {
    // Figs 1, 5, 6, 7: scheme x oversubscription grid.
    for (const PolicyKind policy : {PolicyKind::kFirstTouch, PolicyKind::kStaticAlways,
                                    PolicyKind::kStaticOversub, PolicyKind::kAdaptive}) {
      for (const double oversub : {0.0, 1.25, 1.5}) {
        add(name, scheme_config(policy), oversub);
      }
    }
    // Fig 4: ts sweep under Always at 125 %.
    for (const std::uint32_t ts : {16u, 32u}) {
      SimConfig cfg = scheme_config(PolicyKind::kStaticAlways);
      cfg.policy.static_threshold = ts;
      add(name, cfg, 1.25);
    }
    // Fig 8: penalty sweep under Adaptive at 125 %.
    for (const std::uint64_t p : {2ull, 4ull, 1048576ull}) {
      SimConfig cfg = scheme_config(PolicyKind::kAdaptive);
      cfg.policy.migration_penalty = p;
      add(name, cfg, 1.25);
    }
  }
  return grid;
}

}  // namespace uvmsim::tools
