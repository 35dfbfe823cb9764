// UVMTRB1 format tests: writer/reader round-trips (including empty launches
// and multi-chunk traces), the bounded-RSS streaming property, the
// in-memory RecordedTrace round trip (write_trb / read_trb_as_recorded), and
// the robustness contract — every malformed input (truncation, corrupted or
// legacy magic, bad version, garbage varints, out-of-range block ids,
// arbitrary byte flips) raises TraceError; nothing is silently accepted.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "trace/trace_binary.hpp"

namespace uvmsim {
namespace {

/// Temp-file helper: distinct names per test (ctest runs suites in
/// parallel from the same build directory), removed on scope exit.
class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  void write(const std::string& bytes) const {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  [[nodiscard]] std::string read() const {
    std::ifstream is(path_, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }

 private:
  std::string path_;
};

Access acc(VirtAddr addr, AccessType type = AccessType::kRead, std::uint16_t count = 1,
           std::uint16_t gap = 0) {
  return Access{addr, type, count, gap};
}

/// Deterministic synthetic trace: 2 allocations, 3 launches (the middle one
/// empty), mixed read/write tasks exercising deltas in both directions,
/// multi-count and gapped records.
void write_sample(TraceWriter& w) {
  w.set_allocations({{"table", 300000}, {"out", 90000}});
  w.begin_launch("k_gather");
  w.append_task({acc(0), acc(128, AccessType::kRead, 4), acc(65536, AccessType::kWrite)});
  w.append_task({acc(262144, AccessType::kRead, 1, 500), acc(128)});
  w.begin_launch("k_empty");  // zero-task launch: preserved in the directory
  w.begin_launch("k_scatter");
  w.append_task({acc(320000, AccessType::kWrite, 2, 7)});
  w.finalize();
}

TEST(TraceBinary, Fnv1a64KnownValues) {
  // FNV-1a 64 reference values (offset basis; single 'a').
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  // Chaining splits must not change the digest.
  const char* s = "uvmtrb1";
  EXPECT_EQ(fnv1a64(s, 7), fnv1a64(s + 3, 4, fnv1a64(s, 3)));
}

TEST(TraceBinary, WriterReaderRoundTrip) {
  TempFile tf("trb_roundtrip.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter w(os, {"sample", 42, 0xfeedull});
    write_sample(w);
    EXPECT_TRUE(w.finalized());
    EXPECT_EQ(w.records_written(), 6u);
    EXPECT_EQ(w.tasks_written(), 3u);
  }

  TraceReader r(tf.path());
  EXPECT_NO_THROW(r.verify());
  const TraceMeta& m = r.meta();
  EXPECT_EQ(m.version, kTrbVersion);
  EXPECT_EQ(m.workload, "sample");
  EXPECT_EQ(m.seed, 42u);
  EXPECT_EQ(m.config_digest, 0xfeedull);
  EXPECT_EQ(m.total_records, 6u);
  ASSERT_EQ(m.allocations.size(), 2u);
  EXPECT_EQ(m.allocations[0].name, "table");
  EXPECT_EQ(m.allocations[0].user_size, 300000u);
  ASSERT_EQ(m.launches.size(), 3u);
  EXPECT_EQ(m.launches[0].kernel, "k_gather");
  EXPECT_EQ(m.launches[0].num_tasks, 2u);
  EXPECT_EQ(m.launches[0].num_records, 5u);
  EXPECT_EQ(m.launches[1].kernel, "k_empty");
  EXPECT_EQ(m.launches[1].num_tasks, 0u);
  EXPECT_EQ(m.launches[2].num_tasks, 1u);

  std::vector<Access> out;
  r.read_task(0, 0, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].addr, 0u);
  EXPECT_EQ(out[1].addr, 128u);
  EXPECT_EQ(out[1].count, 4u);
  EXPECT_EQ(out[2].addr, 65536u);
  EXPECT_EQ(out[2].type, AccessType::kWrite);

  out.clear();
  r.read_task(0, 1, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].addr, 262144u);
  EXPECT_EQ(out[0].gap, 500u);
  EXPECT_EQ(out[1].addr, 128u);  // negative delta (zigzag)

  out.clear();
  r.read_task(2, 0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].addr, 320000u);
  EXPECT_EQ(out[0].count, 2u);
  EXPECT_EQ(out[0].gap, 7u);

  // Out-of-range launch / task indices are typed errors, not UB.
  out.clear();
  EXPECT_THROW(r.read_task(3, 0, out), TraceError);
  EXPECT_THROW(r.read_task(1, 0, out), TraceError);  // launch 1 has no tasks
  EXPECT_THROW(r.read_task(0, 2, out), TraceError);
}

TEST(TraceBinary, MillionRecordTraceStreamsWithBoundedMemory) {
  TempFile tf("trb_million.trb");
  constexpr std::uint64_t kTasks = 4096;
  constexpr std::uint64_t kRecordsPerTask = 256;  // 1,048,576 records total
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter::Limits lim;
    lim.max_tasks_per_chunk = 64;
    lim.soft_payload_bytes = 16 * 1024;
    TraceWriter w(os, {"big", 1, 0}, lim);
    w.set_allocations({{"span", 64ull << 20}});
    w.begin_launch("k_big");
    std::vector<Access> task;
    for (std::uint64_t t = 0; t < kTasks; ++t) {
      task.clear();
      for (std::uint64_t i = 0; i < kRecordsPerTask; ++i) {
        const VirtAddr a = ((t * 131 + i * 7) % (1ull << 19)) * 128;
        task.push_back(acc(a, i % 4 == 0 ? AccessType::kWrite : AccessType::kRead));
      }
      w.append_task(task);
    }
    w.finalize();
    EXPECT_EQ(w.records_written(), kTasks * kRecordsPerTask);
  }

  TraceReader r(tf.path());
  EXPECT_EQ(r.meta().total_records, kTasks * kRecordsPerTask);
  EXPECT_GT(r.chunks().size(), 32u);  // the payload really is chunked

  // Stream every task once; the single-chunk cache keeps the decoded
  // footprint bounded by the largest chunk, far below the whole trace.
  std::vector<Access> out;
  std::uint64_t seen = 0;
  for (std::uint64_t t = 0; t < kTasks; ++t) {
    out.clear();
    r.read_task(0, t, out);
    seen += out.size();
  }
  EXPECT_EQ(seen, kTasks * kRecordsPerTask);
  const std::uint64_t total_bytes = kTasks * kRecordsPerTask * sizeof(Access);
  EXPECT_LT(r.peak_decoded_bytes(), total_bytes / 16);
  EXPECT_GT(r.peak_decoded_bytes(), 0u);
}

TEST(TraceBinary, RandomAccessAcrossChunksIsConsistent) {
  TempFile tf("trb_random_access.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter::Limits lim;
    lim.max_tasks_per_chunk = 4;
    lim.soft_payload_bytes = 64;
    TraceWriter w(os, {"ra", 0, 0}, lim);
    w.set_allocations({{"a", 1 << 20}});
    w.begin_launch("k");
    for (std::uint64_t t = 0; t < 64; ++t) w.append_task({acc(t * 128), acc(t * 256)});
    w.finalize();
  }
  TraceReader r(tf.path());
  // Jump around (cache thrash path), then re-read forward; same contents.
  std::vector<Access> out;
  for (const std::uint64_t t : {63ull, 0ull, 31ull, 1ull, 62ull, 32ull}) {
    out.clear();
    r.read_task(0, t, out);
    ASSERT_EQ(out.size(), 2u) << "task " << t;
    EXPECT_EQ(out[0].addr, t * 128);
    EXPECT_EQ(out[1].addr, t * 256);
  }
}

TEST(TraceBinary, TruncatedFilesThrow) {
  TempFile tf("trb_trunc_src.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter w(os, {"t", 0, 0});
    write_sample(w);
  }
  const std::string full = tf.read();
  // The header's footer-offset field locates the boundary between the chunk
  // region and the footer; cuts placed exactly on and just past it probe the
  // reader's boundary arithmetic (footer_offset + 9 is the smallest frame a
  // construction-time parse even attempts: tag + stored hash).
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, full.data() + 24, sizeof footer_offset);
  ASSERT_GT(footer_offset, 40u);
  ASSERT_LT(footer_offset + 9, full.size());
  const auto fo = static_cast<std::size_t>(footer_offset);
  // Every truncation point must fail loudly: either at construction or at
  // the verify() integrity pass (never a silent partial load).
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, std::size_t{39}, std::size_t{48}, full.size() / 2,
        fo - 1, fo, fo + 1, fo + 8, fo + 9, full.size() - 9, full.size() - 1}) {
    TempFile cut("trb_trunc_cut.trb");
    cut.write(full.substr(0, len));
    EXPECT_THROW(
        {
          TraceReader r(cut.path());
          r.verify();
        },
        TraceError)
        << "truncated to " << len << " of " << full.size();
  }
}

TEST(TraceBinary, HostileFooterOffsetsThrow) {
  TempFile tf("trb_hostile_footer_src.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter w(os, {"t", 0, 0});
    write_sample(w);
  }
  const std::string full = tf.read();
  // Offsets that defeat naive `offset + 9 > size` arithmetic: values near
  // 2^64 wrap the addition, and exact-boundary values (size - 9, size - 8)
  // leave a frame too small for anything but (at most) tag + hash.
  for (const std::uint64_t hostile :
       {std::uint64_t{0}, std::uint64_t{39}, ~std::uint64_t{0}, ~std::uint64_t{0} - 8,
        static_cast<std::uint64_t>(full.size()), static_cast<std::uint64_t>(full.size()) - 8}) {
    std::string bad = full;
    std::memcpy(bad.data() + 24, &hostile, sizeof hostile);
    TempFile f("trb_hostile_footer_bad.trb");
    f.write(bad);
    EXPECT_THROW(TraceReader r(f.path()), TraceError) << "footer offset " << hostile;
  }
}

TEST(TraceBinary, CorruptedMagicAndVersionThrow) {
  TempFile tf("trb_magic_src.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter w(os, {"t", 0, 0});
    write_sample(w);
  }
  std::string bytes = tf.read();

  {
    std::string bad = bytes;
    bad[0] = 'X';
    TempFile f("trb_magic_bad.trb");
    f.write(bad);
    EXPECT_THROW(TraceReader r(f.path()), TraceError);
  }
  {
    std::string legacy = bytes;
    legacy[5] = 'C';  // the magic of the retired uncompressed format
    TempFile f("trb_magic_legacy.trb");
    f.write(legacy);
    EXPECT_THROW(TraceReader r(f.path()), TraceError);
    EXPECT_THROW((void)read_trb_as_recorded(f.path()), TraceError);
  }
  {
    std::string bad = bytes;
    bad[8] = 99;  // version field
    TempFile f("trb_version_bad.trb");
    f.write(bad);
    EXPECT_THROW(TraceReader r(f.path()), TraceError);
  }
  {
    TempFile f("trb_garbage.trb");
    f.write("GARBAGEGARBAGEGARBAGEGARBAGEGARBAGEGARBAGEGARBAGEGARBAGE");
    EXPECT_THROW(TraceReader r(f.path()), TraceError);
  }
}

TEST(TraceBinary, OutOfSpanAddressesThrow) {
  // A record pointing past the rebuilt allocation span must be rejected at
  // decode time (replay would otherwise fault outside every allocation).
  TempFile tf("trb_span_src.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter w(os, {"t", 0, 0});
    w.set_allocations({{"tiny", 4096}});  // span: one 2 MB chunk after rounding
    w.begin_launch("k");
    w.append_task({acc(8 << 20)});  // far outside the rebuilt span
    w.finalize();
  }
  TraceReader r(tf.path());
  std::vector<Access> out;
  EXPECT_THROW(r.read_task(0, 0, out), TraceError);
  EXPECT_THROW(r.verify(), TraceError);
}

TEST(TraceBinary, EveryByteFlipIsDetected) {
  // Seeded byte-mutation fuzz: the content hash covers the entire file, so
  // any single-byte change must surface as TraceError from the constructor,
  // verify(), or task decoding — never a crash, never silent acceptance.
  TempFile tf("trb_fuzz_src.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter::Limits lim;
    lim.max_tasks_per_chunk = 8;
    lim.soft_payload_bytes = 128;
    TraceWriter w(os, {"fuzzed", 7, 0x1234ull}, lim);
    write_sample(w);
  }
  const std::string bytes = tf.read();
  ASSERT_GT(bytes.size(), 49u);

  Rng rng(0xf00dull);
  int detected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t pos = static_cast<std::size_t>(rng.below(bytes.size()));
    const char flip = static_cast<char>(1 + rng.below(255));  // guaranteed change
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ flip);

    TempFile f("trb_fuzz_mut.trb");
    f.write(mutated);
    bool threw = false;
    try {
      TraceReader r(f.path());
      std::vector<Access> out;
      for (std::uint32_t l = 0; l < r.meta().launches.size(); ++l) {
        for (std::uint64_t t = 0; t < r.meta().launches[l].num_tasks; ++t) {
          out.clear();
          r.read_task(l, t, out);
        }
      }
      r.verify();
    } catch (const TraceError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "byte flip at offset " << pos << " (xor "
                       << static_cast<int>(flip) << ") was silently accepted";
    detected += threw ? 1 : 0;
  }
  EXPECT_EQ(detected, 400);
}

TEST(TraceBinary, WriteTrbRoundTripsRecordedTraces) {
  // In-memory -> binary -> in-memory must preserve the record stream exactly
  // (empty launches are dropped, matching TraceWorkload::schedule()).
  RecordedTrace trace;
  trace.allocations = {{"a", 100000}, {"b", 50000}};
  RecordedLaunch l1;
  l1.kernel = "k1";
  for (std::uint64_t i = 0; i < 600; ++i) {
    l1.records.push_back(acc(i * 128, i % 5 == 0 ? AccessType::kWrite : AccessType::kRead,
                             static_cast<std::uint16_t>(1 + i % 3),
                             static_cast<std::uint16_t>(i % 7)));
  }
  RecordedLaunch empty;
  empty.kernel = "k_empty";
  RecordedLaunch l2;
  l2.kernel = "k2";
  l2.records.push_back(acc(131072, AccessType::kRead, 2, 9));
  trace.launches = {l1, empty, l2};

  TempFile trb("trb_recorded.trb");
  {
    std::ofstream os(trb.path(), std::ios::binary);
    write_trb(os, trace, {"recorded", 0, 0});
  }

  TraceReader r(trb.path());
  EXPECT_NO_THROW(r.verify());
  ASSERT_EQ(r.meta().launches.size(), 2u);  // empty launch dropped
  EXPECT_EQ(r.meta().launches[0].num_tasks, 3u);  // 600 records / kRecordsPerTask
  EXPECT_EQ(r.meta().total_records, 601u);

  const RecordedTrace back = read_trb_as_recorded(trb.path());
  ASSERT_EQ(back.allocations.size(), trace.allocations.size());
  EXPECT_EQ(back.allocations[1].first, "b");
  EXPECT_EQ(back.allocations[1].second, 50000u);
  ASSERT_EQ(back.launches.size(), 2u);
  EXPECT_TRUE(back.launches[0] == l1);
  EXPECT_TRUE(back.launches[1] == l2);
}

TEST(TraceBinary, FinalizeIsRequiredAndIdempotencyGuarded) {
  TempFile tf("trb_nofinal.trb");
  {
    std::ofstream os(tf.path(), std::ios::binary);
    TraceWriter w(os, {"t", 0, 0});
    w.set_allocations({{"a", 4096}});
    w.begin_launch("k");
    w.append_task({acc(0)});
    // no finalize()
  }
  EXPECT_THROW(TraceReader r(tf.path()), TraceError);
}

}  // namespace
}  // namespace uvmsim
