#include "workloads/registry.hpp"

#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "trace/replay_workload.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

namespace {

using Factory = std::function<std::unique_ptr<Workload>(const WorkloadParams&)>;

const std::unordered_map<std::string, Factory>& factories() {
  static const std::unordered_map<std::string, Factory> table{
      {"backprop", make_backprop}, {"fdtd", make_fdtd}, {"hotspot", make_hotspot},
      {"srad", make_srad},         {"bfs", make_bfs},   {"nw", make_nw},
      {"ra", make_ra},             {"sssp", make_sssp}, {"spmv", make_spmv},
      {"pagerank", make_pagerank}, {"kmeans", make_kmeans},
      {"histogram", make_histogram},
      // Trace replay: drives WorkloadParams::trace_file back through the sim.
      {"replay", make_replay_workload},
  };
  return table;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadParams& params) {
  const auto it = factories().find(name);
  if (it == factories().end()) {
    throw std::invalid_argument("make_workload: unknown workload '" + name + "'");
  }
  return it->second(params);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "backprop", "fdtd", "hotspot", "srad",  // regular
      "bfs", "nw", "ra", "sssp",              // irregular
  };
  return names;
}

const std::vector<std::string>& extra_workload_names() {
  static const std::vector<std::string> names{
      "kmeans", "histogram",  // regular-ish
      "spmv", "pagerank",     // irregular
  };
  return names;
}

std::vector<std::string> all_generator_workload_names() {
  std::vector<std::string> names = workload_names();
  const auto& extra = extra_workload_names();
  names.insert(names.end(), extra.begin(), extra.end());
  return names;
}

}  // namespace uvmsim
