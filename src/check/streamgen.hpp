// Adversarial case generation for the differential fuzzer.
//
// A FuzzCase bundles everything one sim-vs-model iteration needs: a randomized
// SimConfig (policy kind, thresholds, eviction/prefetch machinery, counter
// geometry, oversubscription), per-allocation placement advice, and a
// RecordedTrace access stream built from hostile patterns — thrash loops
// sized just past device capacity, hot/cold splits, write bursts,
// counter-saturation ramps and chunk ping-pong — rather than uniform noise.
// Everything derives from one seed; the same (seed, index) pair always
// yields byte-identical cases.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "trace/replay.hpp"

namespace uvmsim {

/// One self-contained differential-fuzz iteration.
struct FuzzCase {
  SimConfig config;
  /// Per-allocation placement hints, parallel to trace->allocations.
  std::vector<MemAdvice> advice;
  /// The access stream; shared so shrink candidates can alias the case.
  std::shared_ptr<const RecordedTrace> trace;
  std::uint64_t seed = 0;   ///< derived per-case seed (diagnostics)
  std::string label;        ///< pattern summary, e.g. "thrash+write-burst"
};

struct StreamGenOptions {
  std::uint64_t min_records = 60;
  std::uint64_t max_records = 700;
  /// Pattern index (see pattern_name) every launch must use; -1 = random.
  int force_pattern = -1;
  /// Pin mem.coalescing: 0 = off, 1 = on; -1 = randomized per case.
  int force_coalescing = -1;
};

/// The hostile stream pattern table, indexable by
/// StreamGenOptions::force_pattern.
[[nodiscard]] std::size_t pattern_count() noexcept;
[[nodiscard]] const char* pattern_name(std::size_t i) noexcept;
/// Index of `name` in the pattern table, or -1 when unknown.
[[nodiscard]] int pattern_index(const std::string& name) noexcept;

/// Deterministically generate case `index` of the stream seeded by
/// `master_seed`. Configs always come back with collect_traces set and
/// copy_then_execute cleared (the model observes, never preloads). Every
/// record ends within the mapped span, so every case saves as UVMTRB1.
[[nodiscard]] FuzzCase generate_case(std::uint64_t master_seed, std::uint64_t index,
                                     const StreamGenOptions& opts = {});

/// Corpus-style mutation: delete/duplicate/retype/recount/re-address a few
/// records of an existing trace. Addresses are only ever recombined from
/// records already present, and a record that would run past the mapped
/// span is cut to end there, so mutants save as UVMTRB1 too.
[[nodiscard]] RecordedTrace mutate_trace(const RecordedTrace& trace, Rng& rng);

}  // namespace uvmsim
