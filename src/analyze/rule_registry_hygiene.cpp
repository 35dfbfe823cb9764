// Rule `registry-hygiene`: the places where the repo promises "every X is
// registered" are cross-checked mechanically.
//
//   * Every numeric SimStats field (src/sim/stats.hpp) must have exactly one
//     UVMSIM_METRIC entry in obs/metrics.def, and vice versa. The build
//     already static_asserts the *count* (obs/registry.cpp); this rule names
//     the exact missing or stale field instead of just failing sizeof.
//   * Every policy slug registered in src/policy/ must have a backticked
//     entry in docs/POLICIES.md — an undocumented policy is invisible to
//     anyone reading the catalog, and a documented-but-removed slug is a lie.
//   * Every workload slug in the factory table of src/workloads/registry.cpp
//     must have a backticked entry in docs/WORKLOADS.md, for the same
//     reason: `uvmsim --workload X` is only discoverable through that doc.
//
// Config keys need no check here: src/sim/config_parse.cpp lists each key
// once, and parsing and serialization both read that one table.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"
#include "analyze/rules.hpp"
#include "analyze/rules_common.hpp"

namespace uvmsim::analyze {

namespace {

constexpr std::string_view kStatsPath = "src/sim/stats.hpp";
constexpr std::string_view kMetricsPath = "src/obs/metrics.def";
constexpr std::string_view kPoliciesDoc = "docs/POLICIES.md";
constexpr std::string_view kWorkloadRegistry = "src/workloads/registry.cpp";
constexpr std::string_view kWorkloadsDoc = "docs/WORKLOADS.md";

/// Numeric fields of struct SimStats: `uint64_t name = ...;` / `Cycle name;`
/// at depth 1 of the struct body. Non-numeric members (std::string
/// last_violation) are intentionally outside the metric schema.
[[nodiscard]] std::map<std::string, int> collect_stats_fields(const SourceFile& file) {
  std::map<std::string, int> fields;
  const std::vector<Token>& toks = file.tokens;

  std::size_t body = toks.size();
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text == "struct" && toks[i + 1].text == "SimStats" &&
        toks[i + 2].text == "{") {
      body = i + 3;
      break;
    }
  }
  if (body == toks.size()) return fields;

  int depth = 1;
  for (std::size_t i = body; i < toks.size() && depth > 0; ++i) {
    const std::string& t = toks[i].text;
    if (t == "{") ++depth;
    if (t == "}") --depth;
    if (depth != 1 || toks[i].kind != TokenKind::kIdentifier) continue;
    const Token* prev = tok_at(toks, i, -1);
    if (prev == nullptr || prev->kind != TokenKind::kIdentifier) continue;
    if (prev->text != "uint64_t" && prev->text != "Cycle") continue;
    const Token* next = tok_at(toks, i, +1);
    if (!tok_is(next, "=") && !tok_is(next, ";")) continue;
    fields.emplace(t, toks[i].line);
  }
  return fields;
}

/// First argument of each UVMSIM_METRIC(field, ...) invocation.
[[nodiscard]] std::map<std::string, int> collect_metric_entries(const SourceFile& file) {
  std::map<std::string, int> entries;
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "UVMSIM_METRIC" || toks[i + 1].text != "(") continue;
    if (toks[i + 2].kind == TokenKind::kIdentifier)
      entries.emplace(toks[i + 2].text, toks[i + 2].line);
  }
  return entries;
}

class RegistryHygieneRule final : public Rule {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "registry-hygiene"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "SimStats fields <-> obs/metrics.def entries; policy slugs documented in "
           "docs/POLICIES.md; workload slugs documented in docs/WORKLOADS.md";
  }

  void run(const Corpus& corpus, std::vector<Finding>& out) const override {
    check_metric_registry(corpus, out);
    check_policy_docs(corpus, out);
    check_workload_docs(corpus, out);
  }

 private:
  void add(std::string file, int line, std::string message, std::vector<Finding>& out) const {
    out.push_back(Finding{std::string(name()), std::move(file), line, std::move(message),
                          Severity::kError});
  }

  void check_metric_registry(const Corpus& corpus, std::vector<Finding>& out) const {
    const SourceFile* stats = corpus.find(kStatsPath);
    const SourceFile* metrics = corpus.find(kMetricsPath);
    if (stats == nullptr || metrics == nullptr) return;  // partial corpora (fixtures)

    const std::map<std::string, int> fields = collect_stats_fields(*stats);
    const std::map<std::string, int> entries = collect_metric_entries(*metrics);
    if (fields.empty()) {
      add(std::string(kStatsPath), 0,
          "could not locate any numeric SimStats fields — rule parser out of date?", out);
      return;
    }
    for (const auto& [field, line] : fields) {
      if (entries.count(field) == 0) {
        add(std::string(kStatsPath), line,
            "SimStats field '" + field + "' has no UVMSIM_METRIC entry in obs/metrics.def",
            out);
      }
    }
    for (const auto& [entry, line] : entries) {
      if (fields.count(entry) == 0) {
        add(std::string(kMetricsPath), line,
            "UVMSIM_METRIC entry '" + entry + "' has no matching numeric SimStats field",
            out);
      }
    }
  }

  void check_policy_docs(const Corpus& corpus, std::vector<Finding>& out) const {
    // Slugs registered in src/policy/: `<registry>.add({"slug", ...})`.
    std::map<std::string, std::pair<std::string, int>> slugs;  // slug -> (file, line)
    for (const SourceFile& file : corpus.files) {
      if (!starts_with(file.path, "src/policy/")) continue;
      const std::vector<Token>& toks = file.tokens;
      for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].text == "add" && toks[i + 1].text == "(" && toks[i + 2].text == "{" &&
            toks[i + 3].kind == TokenKind::kString) {
          slugs.try_emplace(toks[i + 3].text, std::make_pair(file.path, toks[i + 3].line));
        }
      }
    }
    if (slugs.empty()) return;  // fixture corpus without the policy layer

    const std::string* doc = corpus.extra(kPoliciesDoc);
    if (doc == nullptr) {
      const auto& [file, line] = slugs.begin()->second;
      add(file, line,
          "policy slugs are registered but docs/POLICIES.md is missing from the repo", out);
      return;
    }
    for (const auto& [slug, where] : slugs) {
      if (doc->find("`" + slug + "`") == std::string::npos) {
        add(where.first, where.second,
            "policy slug '" + slug + "' has no `" + slug + "` entry in docs/POLICIES.md",
            out);
      }
    }
  }

  void check_workload_docs(const Corpus& corpus, std::vector<Finding>& out) const {
    // Workload slugs are the string keys of the factory table in
    // src/workloads/registry.cpp: `{"slug", make_xxx}` initializer entries.
    const SourceFile* registry = corpus.find(kWorkloadRegistry);
    if (registry == nullptr) return;  // partial corpora (fixtures)

    std::map<std::string, int> slugs;  // slug -> line
    const std::vector<Token>& toks = registry->tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].text != "{" || toks[i + 1].kind != TokenKind::kString ||
          toks[i + 2].text != ",")
        continue;
      if (toks[i + 3].kind == TokenKind::kIdentifier &&
          starts_with(toks[i + 3].text, "make_")) {
        slugs.try_emplace(toks[i + 1].text, toks[i + 1].line);
      }
    }
    if (slugs.empty()) return;  // table refactored away; nothing to check

    const std::string* doc = corpus.extra(kWorkloadsDoc);
    if (doc == nullptr) {
      add(std::string(kWorkloadRegistry), slugs.begin()->second,
          "workload slugs are registered but docs/WORKLOADS.md is missing from the repo",
          out);
      return;
    }
    for (const auto& [slug, line] : slugs) {
      if (doc->find("`" + slug + "`") == std::string::npos) {
        add(std::string(kWorkloadRegistry), line,
            "workload slug '" + slug + "' has no `" + slug + "` entry in docs/WORKLOADS.md",
            out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_registry_hygiene_rule() {
  return std::make_unique<RegistryHygieneRule>();
}

}  // namespace uvmsim::analyze
