// UVMTRB1: the binary trace format for record / replay, and the only trace
// format on disk.
//
//   * it records at *task* granularity — the exact access stream each warp
//     claimed, in hand-out order (TraceSink::on_task) — so replay re-issues
//     byte-identical task streams and reproduces SimStats exactly;
//   * records are varint-delta encoded (typically 2-4 bytes per access);
//   * tasks are grouped into self-describing chunk frames, so million-access
//     traces stream through a single-chunk cache with bounded RSS.
//
// In-memory traces (RecordedTrace, trace/replay.hpp: fuzzer repros and
// tournament scenarios) go to and from this format with write_trb and
// read_trb_as_recorded.
//
// File layout (little-endian):
//
//   header (40 bytes):
//     magic "UVMTRB1\0"
//     u32 version (= 1), u32 flags (= 0)
//     u64 config_digest          digest of the recording SimConfig, see
//                                config_digest() in sim/config_parse.hpp;
//                                0 = unknown
//     u64 footer_offset          patched on finalize()
//     u64 total_records          patched on finalize()
//   chunk frames, each:
//     'C', varint launch, varint first_task, varint num_tasks,
//     varint payload_bytes, payload
//   footer:
//     'F'
//     varint num_allocations;  per: varint name_len, name, varint user_size
//     varint num_launches;     per: varint name_len, name, varint num_tasks,
//                                   varint num_records, varint first_chunk,
//                                   varint num_chunks
//     varint num_chunks;       per: varint launch, varint first_task,
//                                   varint num_tasks, varint offset,
//                                   varint payload_bytes
//     varint workload_len, workload, varint seed      (provenance)
//     u64 content_hash (fixed 8 bytes)
//
// Chunk payload, per task: varint num_records, then per record a flags byte
// (bit0 write, bit1 count-follows, bit2 gap-follows; higher bits must be 0),
// a zigzag-varint address delta (previous address resets to 0 per task), and
// the optional count / gap varints (omitted = 1 / 0).
//
// The content hash is FNV-1a 64 over the header prefix (bytes [0,24)), every
// chunk frame, the footer_offset and total_records values, and the footer up
// to the hash itself — so any byte flip anywhere in the file is caught by
// TraceReader::verify(); there is no silent acceptance of corrupted input.
//
// All malformed-input failures throw TraceError; CLIs map it to exit code 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// Malformed or unreadable trace input. CLIs map this to exit code 2
/// (usage/input error), distinct from internal failures (exit code 1).
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kTrbVersion = 1;

/// FNV-1a 64-bit over `len` bytes, chainable via `seed`.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t len,
                                    std::uint64_t seed = 0xcbf29ce484222325ull) noexcept;

struct TraceAllocInfo {
  std::string name;
  std::uint64_t user_size = 0;
};

struct TraceLaunchInfo {
  std::string kernel;
  std::uint64_t num_tasks = 0;    ///< non-empty task streams recorded
  std::uint64_t num_records = 0;  ///< accesses across those tasks
  std::uint64_t first_chunk = 0;  ///< index into the chunk directory
  std::uint64_t num_chunks = 0;
};

/// One chunk frame as listed in the footer directory.
struct TraceChunkInfo {
  std::uint32_t launch = 0;
  std::uint64_t first_task = 0;  ///< launch-local task index of the first task
  std::uint32_t num_tasks = 0;
  std::uint64_t offset = 0;  ///< absolute file offset of the 'C' frame
  std::uint64_t payload_bytes = 0;
};

/// Everything about a trace except the access payload.
struct TraceMeta {
  std::uint32_t version = kTrbVersion;
  std::uint64_t config_digest = 0;
  std::uint64_t total_records = 0;
  std::string workload;  ///< provenance: slug of the recorded workload
  std::uint64_t seed = 0;
  std::vector<TraceAllocInfo> allocations;
  std::vector<TraceLaunchInfo> launches;
};

/// Streaming UVMTRB1 writer. Attach as RunOptions::trace_sink to record a
/// run (the simulator feeds on_layout / on_kernel_begin, the GPU model feeds
/// on_task), or drive begin_launch()/append_task() directly (write_trb).
/// finalize() must be called exactly once after the run; nothing before it
/// constitutes a valid trace.
class TraceWriter final : public TraceSink {
 public:
  struct Provenance {
    std::string workload;  ///< slug of the workload being recorded
    std::uint64_t seed = 0;
    std::uint64_t config_digest = 0;
  };
  struct Limits {
    std::uint32_t max_tasks_per_chunk = 512;
    std::uint64_t soft_payload_bytes = 256 * 1024;  ///< flush when exceeded
  };

  TraceWriter(std::ostream& os, Provenance prov, Limits limits);
  TraceWriter(std::ostream& os, Provenance prov) : TraceWriter(os, std::move(prov), Limits{}) {}

  // --- TraceSink hooks (recording path) ---------------------------------
  void on_access(Cycle, VirtAddr, AccessType, std::uint32_t, bool) override {}
  void on_kernel_begin(std::uint32_t, const std::string& name) override { begin_launch(name); }
  void on_layout(const AddressSpace& space) override;
  void on_task(std::uint64_t, const std::vector<Access>& accesses) override {
    append_task(accesses);
  }

  // --- direct API (write_trb, tests) ------------------------------------
  void set_allocations(std::vector<TraceAllocInfo> allocs);
  void begin_launch(const std::string& kernel);
  void append_task(const std::vector<Access>& accesses);
  /// Flush the pending chunk, write the footer and patch the header. The
  /// stream is positioned at end-of-file afterwards. Throws TraceError on a
  /// failed or non-seekable stream.
  void finalize();

  [[nodiscard]] std::uint64_t records_written() const noexcept { return total_records_; }
  [[nodiscard]] std::uint64_t tasks_written() const noexcept { return total_tasks_; }
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

 private:
  void flush_chunk();
  void hashed_write(const void* data, std::size_t len);

  std::ostream& os_;
  Provenance prov_;
  Limits limits_;
  std::vector<TraceAllocInfo> allocs_;
  std::vector<TraceLaunchInfo> launches_;
  std::vector<TraceChunkInfo> chunks_;
  std::string payload_;  ///< pending chunk payload (encoded)
  std::uint32_t chunk_tasks_ = 0;
  std::uint64_t chunk_first_task_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t total_tasks_ = 0;
  std::uint64_t hash_;
  std::uint64_t pos_ = 0;  ///< bytes written so far
  bool finalized_ = false;
};

/// Streaming UVMTRB1 reader. Construction parses the header + footer and
/// structurally validates the directory (every other failure mode is caught
/// by the content hash in verify()). Task payloads are decoded one chunk at
/// a time through a single-chunk cache, so peak memory is bounded by the
/// largest chunk, not the trace.
class TraceReader {
 public:
  explicit TraceReader(std::string path);

  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] const std::vector<TraceChunkInfo>& chunks() const noexcept { return chunks_; }
  [[nodiscard]] std::uint64_t file_bytes() const noexcept { return file_bytes_; }
  /// End of the rebuilt address span; every recorded access must fit below.
  [[nodiscard]] std::uint64_t span_end() const noexcept { return span_end_; }

  /// Append the access stream of `task` (dense, launch-local) of `launch`
  /// to `out`. Decodes (and caches) the containing chunk on demand.
  void read_task(std::uint32_t launch, std::uint64_t task, std::vector<Access>& out);

  /// Full-file integrity pass: re-streams every byte, recomputes the content
  /// hash, cross-checks chunk frames against the directory and decodes every
  /// payload. Throws TraceError on any mismatch.
  void verify();

  /// Largest decoded-chunk footprint seen so far (bytes of Access storage) —
  /// the streaming-RSS bound reported by the bench lane.
  [[nodiscard]] std::uint64_t peak_decoded_bytes() const noexcept { return peak_decoded_; }

 private:
  void load_chunk(std::size_t chunk_index);

  std::string path_;
  std::ifstream is_;
  TraceMeta meta_;
  std::vector<TraceChunkInfo> chunks_;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t footer_offset_ = 0;
  std::uint64_t span_end_ = 0;
  std::uint64_t stored_hash_ = 0;

  std::size_t cached_chunk_ = static_cast<std::size_t>(-1);
  std::vector<std::vector<Access>> cached_tasks_;
  std::uint64_t peak_decoded_ = 0;
};

/// Write an in-memory trace as UVMTRB1, slicing each launch into
/// kRecordsPerTask-record tasks — the chunking TraceWorkload uses, so
/// replaying the file is stat-identical to replaying `trace` through
/// TraceWorkload. Launches with no records are dropped; TraceWorkload skips
/// them too.
void write_trb(std::ostream& os, const RecordedTrace& trace, TraceWriter::Provenance prov);

/// Verify a UVMTRB1 file (TraceReader::verify) and flatten it into the
/// in-memory form: each launch's tasks are appended in order to its record
/// stream. Throws TraceError.
[[nodiscard]] RecordedTrace read_trb_as_recorded(const std::string& path);

}  // namespace uvmsim
