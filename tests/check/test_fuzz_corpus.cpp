// Corpus regression: every shrunk repro in tests/data/fuzz_corpus/ replays
// through the simulator in lockstep with the reference model. With a
// faithful oracle the pair must agree (the corpus holds no real divergences
// — those would be bugs to fix, not archive); with the fault recorded in the
// entry's sidecar re-injected, the divergence that produced the entry must
// still reproduce. The second half keeps the corpus honest: an entry whose
// fault stops reproducing has been invalidated by a semantics change and
// must be re-shrunk or retired. The entries are UVMTRB1 traces, so what the
// fuzzer saves must load back, and a corrupted entry must not load at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "sim/config_parse.hpp"
#include "trace/trace_binary.hpp"

namespace uvmsim {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_entries() {
  const fs::path dir = fs::path(UVMSIM_TEST_DATA_DIR) / "fuzz_corpus";
  std::vector<fs::path> traces;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".trb") traces.push_back(e.path());
  }
  std::sort(traces.begin(), traces.end());
  return traces;
}

TEST(FuzzCorpus, HasEntries) { EXPECT_GE(corpus_entries().size(), 6u); }

TEST(FuzzCorpus, FaithfulOracleAgreesOnEveryEntry) {
  for (const fs::path& trc : corpus_entries()) {
    fs::path cfg = trc;
    cfg.replace_extension(".cfg");
    ASSERT_TRUE(fs::exists(cfg)) << "missing sidecar for " << trc;
    const FuzzCase fc = load_case(trc.string(), cfg.string());
    const CaseOutcome out = run_case(fc, InjectedFault::kNone);
    EXPECT_FALSE(out.interesting) << trc << ": " << out.message;
  }
}

TEST(FuzzCorpus, RecordedFaultStillReproduces) {
  for (const fs::path& trc : corpus_entries()) {
    fs::path cfg = trc;
    cfg.replace_extension(".cfg");
    InjectedFault fault = InjectedFault::kNone;
    const FuzzCase fc = load_case(trc.string(), cfg.string(), &fault);
    if (fault == InjectedFault::kNone) continue;  // promoted real-bug repro
    const CaseOutcome out = run_case(fc, fault);
    EXPECT_TRUE(out.interesting)
        << trc << ": fault " << to_cstr(fault) << " no longer reproduces";
  }
}

TEST(FuzzCorpus, EntriesAreMinimal) {
  for (const fs::path& trc : corpus_entries()) {
    fs::path cfg = trc;
    cfg.replace_extension(".cfg");
    const FuzzCase fc = load_case(trc.string(), cfg.string());
    EXPECT_LE(fc.trace->total_records(), 64u) << trc;
    EXPECT_GE(fc.trace->total_records(), 1u) << trc;
  }
}

TEST(FuzzCorpus, SavedCasesLoadBack) {
  // Generated cases and mutants of them, saved as repros, must load with
  // the same config, fault, advice, allocations and records. A record that
  // runs past the mapped span would make the saved trace unreadable.
  const std::string trb = "fuzz_saved_case.trb";
  const std::string cfg = "fuzz_saved_case.cfg";
  Rng rng(0x5a7e);
  for (std::uint64_t i = 0; i < 200; ++i) {
    FuzzCase fc = generate_case(1, i);
    if (i % 2 == 1) fc.trace = std::make_shared<RecordedTrace>(mutate_trace(*fc.trace, rng));
    const InjectedFault fault = i % 4 == 0 ? InjectedFault::kSkipHalving : InjectedFault::kNone;
    SCOPED_TRACE(fc.label);
    save_case(fc, fault, trb, cfg);
    InjectedFault loaded_fault = InjectedFault::kNone;
    const FuzzCase back = load_case(trb, cfg, &loaded_fault);

    EXPECT_EQ(to_config_string(back.config), to_config_string(fc.config));
    EXPECT_EQ(loaded_fault, fault);
    EXPECT_EQ(back.seed, fc.seed);
    EXPECT_EQ(back.advice, fc.advice);
    EXPECT_EQ(back.trace->allocations, fc.trace->allocations);
    std::vector<RecordedLaunch> saved;  // launches with no records are not saved
    for (const RecordedLaunch& l : fc.trace->launches) {
      if (!l.records.empty()) saved.push_back(l);
    }
    EXPECT_FALSE(saved.empty());
    EXPECT_TRUE(back.trace->launches == saved);
  }
  std::remove(trb.c_str());
  std::remove(cfg.c_str());
}

TEST(FuzzCorpus, BitFlippedEntryIsRejected) {
  // load_case checks the content hash before it flattens the trace, so no
  // single-bit flip anywhere in an entry loads as a different case.
  const fs::path entry = corpus_entries().front();
  fs::path cfg = entry;
  cfg.replace_extension(".cfg");
  std::ifstream is(entry, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  ASSERT_FALSE(bytes.empty());
  const std::string flipped = "fuzz_corpus_flipped.trb";
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string bad = bytes;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    {
      std::ofstream os(flipped, std::ios::binary | std::ios::trunc);
      os.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_THROW((void)load_case(flipped, cfg.string()), TraceError) << "bit " << bit;
  }
  std::remove(flipped.c_str());
}

}  // namespace
}  // namespace uvmsim
