// uvmsim-analyze — token-level static analysis over the repo's own sources.
//
//   uvmsim-analyze --root .                 # run every rule, text report
//   uvmsim-analyze --rules layering,determinism
//   uvmsim-analyze --json > report.json     # stable-sorted, timestamp-free
//   uvmsim-analyze --baseline tools/uvmsim_analyze.baseline
//   uvmsim-analyze --write-baseline tools/uvmsim_analyze.baseline
//
// Exit codes: 0 clean, 1 findings, 2 usage / I-O error. docs/ANALYSIS.md has
// the rule catalog and the suppression / baseline workflow.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/analysis.hpp"
#include "sim/config_parse.hpp"

namespace {

constexpr const char* kUsage =
    "usage: uvmsim-analyze [options]\n"
    "  --root DIR            repo root to analyze (default: .)\n"
    "  --rules A,B,...       run only the named rules (default: all)\n"
    "  --json                emit the JSON report instead of text\n"
    "  --baseline FILE       fingerprints in FILE do not fail the run\n"
    "  --write-baseline FILE write current findings as the new baseline and exit 0\n"
    "  --max-findings N      report at most N findings (0 = unlimited)\n"
    "  --list-rules          print the rule catalog and exit\n"
    "  --quiet               print nothing when the tree is clean\n"
    "exit codes: 0 clean, 1 findings, 2 usage or I/O error\n";

[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  std::string write_baseline_path;
  std::uint64_t max_findings = 0;
  bool json = false;
  bool list_rules = false;
  bool quiet = false;
  uvmsim::analyze::AnalysisOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) {
        std::cerr << "uvmsim-analyze: --root needs a directory\n" << kUsage;
        return 2;
      }
      root = v;
    } else if (arg == "--rules") {
      const char* v = value();
      if (v == nullptr) {
        std::cerr << "uvmsim-analyze: --rules needs a comma-separated list\n" << kUsage;
        return 2;
      }
      opts.rules = split_csv(v);
    } else if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) {
        std::cerr << "uvmsim-analyze: --baseline needs a file\n" << kUsage;
        return 2;
      }
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = value();
      if (v == nullptr) {
        std::cerr << "uvmsim-analyze: --write-baseline needs a file\n" << kUsage;
        return 2;
      }
      write_baseline_path = v;
    } else if (arg == "--max-findings") {
      const char* v = value();
      if (v == nullptr || !uvmsim::parse_u64(v, max_findings)) {
        std::cerr << "uvmsim-analyze: --max-findings needs a non-negative integer\n" << kUsage;
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "uvmsim-analyze: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }

  if (list_rules) {
    for (const auto& rule : uvmsim::analyze::make_default_rules())
      std::cout << rule->name() << "\n    " << rule->description() << "\n";
    return 0;
  }

  if (!baseline_path.empty()) {
    std::ifstream is(baseline_path);
    if (!is) {
      std::cerr << "uvmsim-analyze: cannot read baseline '" << baseline_path << "'\n";
      return 2;
    }
    opts.baseline = uvmsim::analyze::load_baseline(is);
  }

  uvmsim::analyze::AnalysisResult result;
  try {
    const uvmsim::analyze::Corpus corpus = uvmsim::analyze::load_corpus(root);
    result = uvmsim::analyze::run_analysis(corpus, opts);
  } catch (const std::exception& e) {
    std::cerr << "uvmsim-analyze: " << e.what() << "\n";
    return 2;
  }

  if (!write_baseline_path.empty()) {
    std::ofstream os(write_baseline_path);
    if (!os) {
      std::cerr << "uvmsim-analyze: cannot write baseline '" << write_baseline_path << "'\n";
      return 2;
    }
    uvmsim::analyze::write_baseline(os, result.findings);
    std::cout << "uvmsim-analyze: wrote " << result.findings.size() << " fingerprint"
              << (result.findings.size() == 1 ? "" : "s") << " to " << write_baseline_path
              << "\n";
    return 0;
  }

  if (max_findings != 0 && result.findings.size() > max_findings)
    result.findings.resize(max_findings);

  if (json) {
    uvmsim::analyze::write_json_report(std::cout, result);
  } else if (!quiet || !result.clean()) {
    uvmsim::analyze::write_text_report(std::cout, result);
  }
  return result.clean() ? 0 : 1;
}
