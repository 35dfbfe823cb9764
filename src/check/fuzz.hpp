// Differential fuzzing engine: drive generated FuzzCases through the real
// simulator with a RefModel oracle attached, collect divergences, shrink
// each finding to a minimal replayable trace (greedy record deletion), and
// persist repros as <name>.trb (UVMTRB1) + <name>.cfg sidecar pairs that
// tests/check/test_fuzz_corpus.cpp replays as regressions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/refmodel.hpp"
#include "check/streamgen.hpp"

namespace uvmsim {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 100;
  unsigned jobs = 0;  ///< run_batch worker threads; 0 = hardware concurrency
  /// Oracle corruption for self-tests; kNone fuzzes the real invariant.
  InjectedFault inject = InjectedFault::kNone;
  bool shrink = true;
  /// Dump shrunk repros into this directory when non-empty.
  std::string corpus_dir;
  /// Stop shrinking/dumping after this many findings (all are still counted).
  std::uint64_t max_findings = 8;
  /// Every Nth case replays a mutated copy of an earlier case's trace under
  /// the earlier case's config (corpus-mutation mode); 0 disables.
  std::uint64_t mutate_every = 5;
  /// Force every generated case onto this registry policy slug (empty: keep
  /// the generator's per-case choice). Non-paper slugs put the oracle in
  /// skip-decision mode (see RefModel).
  std::string policy_slug;
  /// Seed the whole campaign from a captured UVMTRB1 trace instead of
  /// generated cases: case 0 replays the trace exactly, every later case
  /// replays a fresh mutant of it. Cases rotate through the four paper
  /// policies unless `policy_slug` pins one. Throws TraceError on a
  /// malformed or corrupted file.
  std::string trace_path;
  StreamGenOptions gen;
  /// Progress callback after each batch entry completes (serialized).
  std::function<void(std::uint64_t done, std::uint64_t total)> progress;
};

/// Outcome of one sim-vs-model run.
struct CaseOutcome {
  bool interesting = false;  ///< diverged, or the run itself threw
  std::string message;
  std::uint64_t accesses = 0;  ///< accesses the model had seen at that point
};

/// One divergence, shrunk (when enabled) and optionally dumped to disk.
struct FuzzFinding {
  FuzzCase reduced;
  std::string message;  ///< divergence text of the reduced case
  std::uint64_t case_index = 0;
  std::uint64_t original_records = 0;
  std::uint64_t reduced_records = 0;
  std::string trace_path;   ///< empty unless dumped
  std::string config_path;  ///< empty unless dumped
};

struct FuzzReport {
  std::uint64_t iterations = 0;
  std::uint64_t divergences = 0;  ///< total interesting cases (before the cap)
  std::vector<FuzzFinding> findings;
};

/// Run one case through the simulator in lockstep with a RefModel (corrupted
/// by `inject` when not kNone). Never throws: simulator/audit exceptions are
/// reported as an interesting outcome.
[[nodiscard]] CaseOutcome run_case(const FuzzCase& fc, InjectedFault inject);

/// Generate + run `iterations` cases through run_batch(); shrink and dump
/// findings per the options.
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& opts);

/// Greedy delta-debugging shrink: repeatedly delete contiguous record windows
/// (halving window sizes down to single records) while the case stays
/// interesting under `inject`. Returns the fixpoint; `final_message` (when
/// non-null) receives the reduced case's divergence text.
[[nodiscard]] FuzzCase shrink_case(const FuzzCase& fc, InjectedFault inject,
                                   std::string* final_message = nullptr);

/// Persist / load a repro as a UVMTRB1 trace (write_trb /
/// read_trb_as_recorded) plus a text sidecar holding the full SimConfig
/// (config_parse format) and fuzz.* metadata lines (seed, fault,
/// per-allocation advice). Both throw std::runtime_error on I/O failure or
/// malformed input; a malformed or corrupted trace is a TraceError.
void save_case(const FuzzCase& fc, InjectedFault fault, const std::string& trace_path,
               const std::string& config_path);
[[nodiscard]] FuzzCase load_case(const std::string& trace_path, const std::string& config_path,
                                 InjectedFault* fault_out = nullptr);

}  // namespace uvmsim
