// uvmsim_fuzz: differential fuzzing CLI. Runs N seeded sim-vs-model
// iterations (check/fuzz.hpp), shrinks every divergence to a minimal
// replayable trace, and optionally dumps the repros as corpus entries.
//
//   uvmsim_fuzz --seed 1 --iters 500                 # production fuzzing
//   uvmsim_fuzz --seed 7 --inject skip-halving ...   # oracle self-test
//   uvmsim_fuzz --replay repro.trb repro.cfg         # re-run one corpus entry
//
// Exit codes: 0 = no divergence, 1 = divergence(s) found (or replay
// diverged), 2 = usage error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "check/fuzz.hpp"
#include "policy/policy_registry.hpp"
#include "sim/config_parse.hpp"

namespace {

using namespace uvmsim;

constexpr const char* kUsage =
    "usage: uvmsim_fuzz [options]\n"
    "       uvmsim_fuzz --replay TRACE.trb CONFIG.cfg\n"
    "\n"
    "options:\n"
    "  --seed N            master seed (default 1)\n"
    "  --iters N           fuzz iterations (default 100)\n"
    "  --jobs N            worker threads (default: hardware concurrency)\n"
    "  --policy SLUG       force every generated case onto one registered\n"
    "                      policy (non-paper policies run the oracle in\n"
    "                      skip-decision mode)\n"
    "  --inject FAULT      corrupt the oracle: none | flip-residency |\n"
    "                      skip-halving | round-trip-off-by-one (default none)\n"
    "  --pattern NAME      force every launch onto one stream pattern\n"
    "                      (uniform | thrash | hot-cold | write-burst |\n"
    "                      sat-ramp | ping-pong | coalesce-churn |\n"
    "                      splinter-storm)\n"
    "  --coalescing on|off pin mem.coalescing instead of randomizing it\n"
    "  --trace FILE        seed the campaign from a captured UVMTRB1 trace:\n"
    "                      case 0 replays it exactly, later cases replay\n"
    "                      mutants, rotating paper policies\n"
    "  --corpus-out DIR    dump shrunk repros into DIR\n"
    "  --max-findings N    shrink/dump at most N findings (default 8)\n"
    "  --no-shrink         keep findings at original trace size\n"
    "  --quiet             suppress per-batch progress\n"
    "  --replay TRB CFG    run one saved repro in lockstep with the oracle\n"
    "  --help              this text\n";

int usage_error(const char* what, const char* arg) {
  std::fprintf(stderr, "uvmsim_fuzz: %s%s%s\n\n%s", what, arg != nullptr ? ": " : "",
               arg != nullptr ? arg : "", kUsage);
  return 2;
}

int run_replay(const std::string& trb, const std::string& cfg) {
  InjectedFault fault = InjectedFault::kNone;
  const FuzzCase fc = load_case(trb, cfg, &fault);
  const CaseOutcome out = run_case(fc, fault);
  std::printf("replay %s (%llu records, fault=%s): %s\n", trb.c_str(),
              static_cast<unsigned long long>(fc.trace->total_records()), to_cstr(fault),
              out.interesting ? "DIVERGED" : "ok");
  if (out.interesting) {
    std::printf("  %s\n", out.message.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opts;
  bool quiet = false;
  std::string replay_trb;
  std::string replay_cfg;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "uvmsim_fuzz: %s needs a value\n\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!parse_u64(next(a), opts.seed)) return usage_error("bad --seed", argv[i]);
    } else if (std::strcmp(a, "--iters") == 0) {
      if (!parse_u64(next(a), opts.iterations) || opts.iterations == 0)
        return usage_error("bad --iters", argv[i]);
    } else if (std::strcmp(a, "--jobs") == 0) {
      if (!parse_unsigned(next(a), opts.jobs)) return usage_error("bad --jobs", argv[i]);
    } else if (std::strcmp(a, "--policy") == 0) {
      const char* v = next(a);
      PolicyConfig probe;
      if (!apply_policy_name(probe, v)) {
        std::fprintf(stderr, "uvmsim_fuzz: unknown policy '%s' (registered: %s)\n", v,
                     registered_policy_names().c_str());
        return 2;
      }
      opts.policy_slug = v;
    } else if (std::strcmp(a, "--max-findings") == 0) {
      if (!parse_u64(next(a), opts.max_findings))
        return usage_error("bad --max-findings", argv[i]);
    } else if (std::strcmp(a, "--inject") == 0) {
      const char* v = next(a);
      bool ok = false;
      for (InjectedFault f : {InjectedFault::kNone, InjectedFault::kFlipResidency,
                              InjectedFault::kSkipHalving, InjectedFault::kRoundTripOffByOne}) {
        if (std::strcmp(v, to_cstr(f)) == 0) {
          opts.inject = f;
          ok = true;
        }
      }
      if (!ok) return usage_error("bad --inject", v);
    } else if (std::strcmp(a, "--pattern") == 0) {
      const char* v = next(a);
      const int idx = pattern_index(v);
      if (idx < 0) return usage_error("unknown --pattern", v);
      opts.gen.force_pattern = idx;
    } else if (std::strcmp(a, "--coalescing") == 0) {
      const char* v = next(a);
      if (std::strcmp(v, "on") == 0) {
        opts.gen.force_coalescing = 1;
      } else if (std::strcmp(v, "off") == 0) {
        opts.gen.force_coalescing = 0;
      } else {
        return usage_error("bad --coalescing (want on|off)", v);
      }
    } else if (std::strcmp(a, "--trace") == 0) {
      opts.trace_path = next(a);
    } else if (std::strcmp(a, "--corpus-out") == 0) {
      opts.corpus_dir = next(a);
    } else if (std::strcmp(a, "--no-shrink") == 0) {
      opts.shrink = false;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(a, "--replay") == 0) {
      replay_trb = next(a);
      replay_cfg = next(a);
    } else {
      return usage_error("unknown flag", a);
    }
  }

  try {
    if (!replay_trb.empty()) return run_replay(replay_trb, replay_cfg);

    if (!quiet) {
      opts.progress = [](std::uint64_t done, std::uint64_t total) {
        if (done % 100 == 0 || done == total)
          std::fprintf(stderr, "  fuzz: %llu/%llu cases\n",
                       static_cast<unsigned long long>(done),
                       static_cast<unsigned long long>(total));
      };
    }
    const FuzzReport rep = run_fuzz(opts);
    std::printf("fuzz: seed=%llu iters=%llu inject=%s divergences=%llu\n",
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(rep.iterations), to_cstr(opts.inject),
                static_cast<unsigned long long>(rep.divergences));
    for (const FuzzFinding& f : rep.findings) {
      std::printf("  case %llu: %llu -> %llu records\n",
                  static_cast<unsigned long long>(f.case_index),
                  static_cast<unsigned long long>(f.original_records),
                  static_cast<unsigned long long>(f.reduced_records));
      std::printf("    %s\n", f.message.c_str());
      if (!f.trace_path.empty())
        std::printf("    saved: %s + %s\n", f.trace_path.c_str(), f.config_path.c_str());
    }
    return rep.divergences == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uvmsim_fuzz: %s\n", e.what());
    return 2;
  }
}
