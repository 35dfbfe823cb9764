// Rule `layering`: the inter-module dependency DAG.
//
// Every source file is assigned a module — by default the directory under
// src/ it lives in, refined by the override table below (interface headers
// such as trace/trace.hpp are "obs-hooks" regardless of directory; the
// Simulator facade and batch runner form the "engine" module above core).
// A `#include "x/y.hpp"` then induces a module edge, which must appear in
// the declarative allowed-edges table. The observed graph is additionally
// checked for cycles, and the table itself must be a DAG — a bad table
// edit is reported instead of silently legalizing a cycle.
//
// The module hierarchy (docs/ANALYSIS.md has the rationale):
//
//   base        value types, config, stats struct, RNG, event queue, UVM_CHECK
//   xfer        PCIe fabric + bandwidth regulators
//   policy      migration policies (pure decision logic — depends on base only)
//   mitigation  thrash throttle
//   mem         block table, device memory, counters, eviction (+ peer directory)
//   obs-hooks   observation interfaces the driver fires: TraceSink, auditor
//               (+ the reference victim scan it checks eviction against)
//   obs         observation-only sinks: metric registry, recorder, chrome trace
//   prefetch    prefetchers
//   trace       trace record/replay (concrete sinks)
//   workloads   workload generators (+ registry; may wrap trace replay)
//   core        UvmDriver: the fault-servicing pipeline
//   gpu         SM / TLB / L2 model (raises faults into core)
//   engine      Simulator facade + RunRequest batch runner + config parsing
//   multigpu    multi-GPU orchestration over engine
//   report      CSV/JSON/table reporting over engine results
//   check       differential oracle, fuzzer, tournament (test harnesses)
//   analyze     this static analyzer (standalone + obs JSON helpers)
//   tools       CLIs, tests, benches, examples, umbrella header — may use all
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"
#include "analyze/rules.hpp"
#include "analyze/rules_common.hpp"

namespace uvmsim::analyze {

namespace {

struct ModuleOverride {
  std::string_view path;
  std::string_view module;
};

/// Files whose module is not their directory. Keep this list small: it is
/// the precise statement of which headers are interface-grade.
constexpr ModuleOverride kOverrides[] = {
    // Primitive value/infrastructure layer usable from anywhere in src/.
    {"src/sim/types.hpp", "base"},
    {"src/sim/config.hpp", "base"},
    {"src/sim/config.cpp", "base"},
    {"src/sim/stats.hpp", "base"},
    {"src/sim/rng.hpp", "base"},
    {"src/sim/event_queue.hpp", "base"},
    {"src/sim/event_queue.cpp", "base"},
    {"src/sim/thread_pool.hpp", "base"},
    {"src/sim/thread_pool.cpp", "base"},
    {"src/check/check.hpp", "base"},
    {"src/check/check.cpp", "base"},
    // SimStats::report()/accumulate() walk the metric registry, so the
    // implementation lives with the observation layer even though the plain
    // struct is base.
    {"src/sim/stats.cpp", "obs"},
    // Observation hooks the driver fires: the TraceSink interface and the
    // invariant auditor. core may depend on these; concrete sinks may not
    // reach back into core.
    {"src/trace/trace.hpp", "obs-hooks"},
    {"src/trace/trace.cpp", "obs-hooks"},
    {"src/check/audit.hpp", "obs-hooks"},
    {"src/check/audit.cpp", "obs-hooks"},
    // The peer directory is passive residency bookkeeping shared between
    // drivers — mem-grade state, not multi-GPU orchestration.
    {"src/multigpu/peer_directory.hpp", "mem"},
    // The Access/Kernel/Workload vocabulary is interface-grade: the trace
    // sink hooks speak it (on_task carries Access records), so it sits with
    // the passive-data layer rather than the generator implementations.
    {"src/workloads/workload.hpp", "mem"},
    // The Simulator facade + batch engine sit above core and gpu.
    {"src/core/simulator.hpp", "engine"},
    {"src/core/simulator.cpp", "engine"},
    {"src/sim/runner.hpp", "engine"},
    {"src/sim/runner.cpp", "engine"},
    {"src/sim/config_parse.hpp", "engine"},
    {"src/sim/config_parse.cpp", "engine"},
};

struct AllowedEdges {
  std::string_view module;
  std::vector<std::string_view> may_include;  ///< besides itself
};

/// The declarative DAG. `tools` is the only wildcard.
const std::vector<AllowedEdges>& allowed_table() {
  static const std::vector<AllowedEdges> table = {
      {"base", {}},
      {"xfer", {"base"}},
      {"policy", {"base"}},
      {"mitigation", {"base"}},
      {"mem", {"xfer", "base"}},
      {"obs-hooks", {"mem", "policy", "xfer", "base"}},
      {"obs", {"obs-hooks", "base"}},
      {"prefetch", {"mem", "base"}},
      {"workloads", {"trace", "mem", "base"}},
      {"trace", {"obs-hooks", "mem", "base"}},
      {"core", {"obs-hooks", "mem", "mitigation", "policy", "prefetch", "xfer", "base"}},
      {"gpu", {"core", "workloads", "obs-hooks", "mem", "base"}},
      {"engine",
       {"core", "gpu", "trace", "obs", "obs-hooks", "workloads", "policy", "mem", "base"}},
      {"multigpu", {"engine", "core", "gpu", "workloads", "mem", "xfer", "base"}},
      {"report", {"engine", "obs", "base"}},
      {"check", {"engine", "mem", "obs", "obs-hooks", "policy", "trace", "base"}},
      {"analyze", {"obs", "base"}},
      {"tools", {"*"}},
  };
  return table;
}

[[nodiscard]] std::string module_of(std::string_view path) {
  for (const ModuleOverride& o : kOverrides)
    if (path == o.path) return std::string(o.module);
  if (starts_with(path, "src/")) {
    const std::size_t slash = path.find('/', 4);
    if (slash != std::string_view::npos) return std::string(path.substr(4, slash - 4));
  }
  return "tools";  // tools/, tests/, bench/, examples/, include/
}

class LayeringRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "layering"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "inter-module #include edges must follow the allowed-edges DAG";
  }

  void run(const Corpus& corpus, std::vector<Finding>& out) const override {
    std::map<std::string, const AllowedEdges*> table;
    for (const AllowedEdges& e : allowed_table()) table[std::string(e.module)] = &e;
    check_table_acyclic(table, out);

    // Observed module graph (one representative include per edge).
    std::map<std::pair<std::string, std::string>, std::pair<std::string, int>> observed;

    for (const SourceFile& file : corpus.files) {
      const std::string src_mod = module_of(file.path);
      for (const IncludeDirective& inc : file.includes) {
        if (inc.angled) continue;  // system headers carry no layering info
        const std::string target = resolve(corpus, inc.target);
        if (target.empty()) continue;  // not an in-repo header
        const std::string dst_mod = module_of(target);
        if (src_mod == dst_mod) continue;
        observed.try_emplace({src_mod, dst_mod}, file.path, inc.line);

        const auto entry = table.find(src_mod);
        if (entry == table.end()) {
          out.push_back(Finding{
              std::string(name()), file.path, inc.line,
              "module '" + src_mod + "' is not in the layering table (src/analyze/" +
                  "rule_layering.cpp) — new modules must declare their allowed edges",
              Severity::kError});
          continue;
        }
        if (!allows(*entry->second, dst_mod)) {
          out.push_back(Finding{
              std::string(name()), file.path, inc.line,
              "forbidden include edge " + src_mod + " -> " + dst_mod + " (" + inc.target +
                  "); allowed from '" + src_mod + "': " + allowed_list(*entry->second),
              Severity::kError});
        }
      }
    }
    check_observed_acyclic(observed, out);
  }

 private:
  [[nodiscard]] static bool allows(const AllowedEdges& e, const std::string& dst) {
    return std::any_of(e.may_include.begin(), e.may_include.end(),
                       [&](std::string_view m) { return m == "*" || m == dst; });
  }

  [[nodiscard]] static std::string allowed_list(const AllowedEdges& e) {
    if (e.may_include.empty()) return "(nothing)";
    std::string out;
    for (const std::string_view m : e.may_include) {
      if (!out.empty()) out += ", ";
      out += m;
    }
    return out;
  }

  /// "core/uvm_driver.hpp" -> "src/core/uvm_driver.hpp" when that file is in
  /// the corpus; "" for includes that do not resolve to a repo source file
  /// (e.g. tool-local "sweep_grid.hpp" relative includes).
  [[nodiscard]] static std::string resolve(const Corpus& corpus, const std::string& target) {
    const std::string candidate = "src/" + target;
    if (corpus.find(candidate) != nullptr) return candidate;
    if (corpus.find(target) != nullptr) return target;
    return "";
  }

  static void check_table_acyclic(const std::map<std::string, const AllowedEdges*>& table,
                                  std::vector<Finding>& out) {
    // DFS with colors over the declared edges ('*' wildcards excluded — the
    // tools sink is terminal by construction).
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> cycle;
    const std::function<bool(const std::string&)> visit = [&](const std::string& m) -> bool {
      color[m] = 1;
      const auto it = table.find(m);
      if (it != table.end()) {
        for (const std::string_view raw : it->second->may_include) {
          if (raw == "*") continue;
          const std::string next(raw);
          if (color[next] == 1) {
            cycle.push_back(next);
            cycle.push_back(m);
            return false;
          }
          if (color[next] == 0 && !visit(next)) {
            cycle.push_back(m);
            return false;
          }
        }
      }
      color[m] = 2;
      return true;
    };
    for (const auto& [m, _] : table) {
      if (color[m] == 0 && !visit(m)) {
        std::string path;
        for (auto it = cycle.rbegin(); it != cycle.rend(); ++it)
          path += (path.empty() ? "" : " -> ") + *it;
        out.push_back(Finding{"layering", "src/analyze/rule_layering.cpp", 0,
                              "allowed-edges table is cyclic: " + path, Severity::kError});
        return;
      }
    }
  }

  static void check_observed_acyclic(
      const std::map<std::pair<std::string, std::string>, std::pair<std::string, int>>& observed,
      std::vector<Finding>& out) {
    std::map<std::string, std::vector<std::string>> g;
    for (const auto& [edge, _] : observed) g[edge.first].push_back(edge.second);
    std::map<std::string, int> color;
    std::vector<std::string> stack;
    std::string cycle_text;
    const std::function<void(const std::string&)> visit = [&](const std::string& m) {
      color[m] = 1;
      stack.push_back(m);
      const auto it = g.find(m);
      if (it != g.end()) {
        for (const std::string& next : it->second) {
          if (!cycle_text.empty()) return;
          if (color[next] == 1) {
            const auto at = std::find(stack.begin(), stack.end(), next);
            for (auto s = at; s != stack.end(); ++s) cycle_text += *s + " -> ";
            cycle_text += next;
            return;
          }
          if (color[next] == 0) visit(next);
        }
      }
      stack.pop_back();
      color[m] = 2;
    };
    for (const auto& [m, _] : g) {
      if (color[m] == 0 && cycle_text.empty()) visit(m);
    }
    if (!cycle_text.empty()) {
      const auto& [file, line] = observed.begin()->second;
      out.push_back(Finding{"layering", file, line,
                            "observed include graph is cyclic: " + cycle_text,
                            Severity::kError});
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_layering_rule() { return std::make_unique<LayeringRule>(); }

}  // namespace uvmsim::analyze
