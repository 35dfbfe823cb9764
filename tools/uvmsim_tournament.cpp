// uvmsim_tournament: race every registered migration policy across a
// deterministic streamgen scenario corpus and print a leaderboard.
//
//   uvmsim-tournament --seed 1 --scenarios 8
//   uvmsim-tournament --policies adaptive,tuned,learned --out-csv board.csv
//   uvmsim-tournament --seed 3 --jobs 2 --out-json board.json
//
// The CSV/JSON artifacts are byte-identical for any --jobs value; wall time
// goes to stdout only. Exit codes: 0 = ok, 1 = a cell failed, 2 = usage.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/tournament.hpp"
#include "policy/policy_registry.hpp"
#include "sim/config_parse.hpp"

namespace {

using namespace uvmsim;

constexpr const char* kUsage =
    "usage: uvmsim-tournament [options]\n"
    "\n"
    "options:\n"
    "  --seed N          scenario corpus seed (default 1)\n"
    "  --scenarios N     streamgen scenarios in the corpus (default 8)\n"
    "  --jobs N          worker threads (default: hardware concurrency)\n"
    "  --policies CSV    comma-separated policy slugs to enter\n"
    "                    (default: every registered policy)\n"
    "  --out-csv FILE    write the leaderboard CSV to FILE\n"
    "  --out-json FILE   write the full result (scenarios, cells,\n"
    "                    leaderboard) as JSON to FILE\n"
    "  --quiet           suppress per-cell progress\n"
    "  --help            this text\n";

int usage_error(const char* what, const char* arg) {
  std::fprintf(stderr, "uvmsim-tournament: %s%s%s\n\n%s", what, arg != nullptr ? ": " : "",
               arg != nullptr ? arg : "", kUsage);
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  TournamentOptions opts;
  std::string out_csv;
  std::string out_json;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "uvmsim-tournament: %s needs a value\n\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!parse_u64(next(a), opts.seed)) return usage_error("bad --seed", argv[i]);
    } else if (std::strcmp(a, "--scenarios") == 0) {
      if (!parse_u64(next(a), opts.scenarios) || opts.scenarios == 0)
        return usage_error("bad --scenarios", argv[i]);
    } else if (std::strcmp(a, "--jobs") == 0) {
      if (!parse_unsigned(next(a), opts.jobs)) return usage_error("bad --jobs", argv[i]);
    } else if (std::strcmp(a, "--policies") == 0) {
      opts.policies = split_csv(next(a));
      if (opts.policies.empty()) return usage_error("bad --policies", argv[i]);
      for (const std::string& slug : opts.policies) {
        PolicyConfig probe;
        if (!apply_policy_name(probe, slug)) {
          std::fprintf(stderr, "uvmsim-tournament: unknown policy '%s' (registered: %s)\n",
                       slug.c_str(), registered_policy_names().c_str());
          return 2;
        }
      }
    } else if (std::strcmp(a, "--out-csv") == 0) {
      out_csv = next(a);
    } else if (std::strcmp(a, "--out-json") == 0) {
      out_json = next(a);
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else {
      return usage_error("unknown flag", a);
    }
  }

  try {
    if (!quiet) {
      opts.progress = [](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "  tournament: %zu/%zu cells\n", done, total);
      };
    }
    const TournamentResult result = run_tournament(opts);

    std::ostringstream board;
    write_tournament_csv(board, result);
    std::printf("tournament: seed=%llu scenarios=%zu policies=%zu cells=%zu "
                "(%.0f ms wall, %u jobs)\n",
                static_cast<unsigned long long>(result.seed), result.scenarios.size(),
                result.leaderboard.size(), result.cells.size(), result.wall_ms, result.jobs);
    std::printf("%s", board.str().c_str());

    if (!out_csv.empty()) {
      std::ofstream out(out_csv);
      if (!out) {
        std::fprintf(stderr, "uvmsim-tournament: cannot open %s\n", out_csv.c_str());
        return 2;
      }
      write_tournament_csv(out, result);
      std::printf("csv:  -> %s\n", out_csv.c_str());
    }
    if (!out_json.empty()) {
      std::ofstream out(out_json);
      if (!out) {
        std::fprintf(stderr, "uvmsim-tournament: cannot open %s\n", out_json.c_str());
        return 2;
      }
      write_tournament_json(out, result);
      std::printf("json: -> %s\n", out_json.c_str());
    }

    std::size_t failed = 0;
    for (const TournamentRow& row : result.leaderboard) failed += row.failed;
    if (failed > 0) {
      std::fprintf(stderr, "uvmsim-tournament: %zu cell(s) failed\n", failed);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uvmsim-tournament: %s\n", e.what());
    return 2;
  }
}
