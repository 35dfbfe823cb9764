#include "trace/trace_binary.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

namespace uvmsim {

namespace {

constexpr std::array<char, 8> kTrbMagic{'U', 'V', 'M', 'T', 'R', 'B', '1', '\0'};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

constexpr std::uint8_t kFlagWrite = 1;
constexpr std::uint8_t kFlagHasCount = 2;
constexpr std::uint8_t kFlagHasGap = 4;
constexpr std::uint8_t kFlagKnownMask = kFlagWrite | kFlagHasCount | kFlagHasGap;

constexpr char kChunkTag = 'C';
constexpr char kFooterTag = 'F';

// Sanity bounds on directory cardinalities: generous for any real trace,
// tight enough that a garbage count cannot drive a huge allocation.
constexpr std::uint64_t kMaxNameLen = 1u << 20;
constexpr std::uint64_t kMaxAllocs = 1u << 20;
constexpr std::uint64_t kMaxLaunches = 1u << 24;
constexpr std::uint64_t kMaxChunks = 1u << 24;

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

[[nodiscard]] std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void put_string(std::string& out, const std::string& s) {
  if (s.size() > kMaxNameLen) throw TraceError("TraceWriter: absurd string length");
  put_varint(out, s.size());
  out.append(s);
}

/// Bounds-checked cursor over an in-memory byte range; every overrun or
/// malformed varint becomes a TraceError tagged with `what`.
struct Cursor {
  const unsigned char* p;
  const unsigned char* end;
  const char* what;

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end - p);
  }
  [[nodiscard]] std::uint8_t u8() {
    if (p >= end) throw TraceError(std::string(what) + ": truncated");
    return *p++;
  }
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
      if ((b & 0x80) == 0) {
        // The 10th byte can only carry the top bit of a u64.
        if (i == 9 && (b & 0x7e) != 0)
          throw TraceError(std::string(what) + ": varint overflows 64 bits");
        return v;
      }
    }
    throw TraceError(std::string(what) + ": varint overflows 64 bits");
  }
  [[nodiscard]] std::string str(std::uint64_t max_len) {
    const std::uint64_t n = varint();
    if (n > max_len) throw TraceError(std::string(what) + ": absurd string length");
    if (n > remaining()) throw TraceError(std::string(what) + ": truncated string");
    std::string s(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
    p += n;
    return s;
  }
};

/// Decode one task's record stream from `cur` into `out`.
void decode_task(Cursor& cur, std::uint64_t span_end, std::vector<Access>& out) {
  const std::uint64_t n = cur.varint();
  // Every record is at least 2 bytes (flags + delta), so a count larger
  // than the remaining payload could ever hold is garbage — reject before
  // reserving anything.
  if (n > cur.remaining() / 2 + 1)
    throw TraceError("UVMTRB1 chunk: record count exceeds payload");
  if (n == 0) throw TraceError("UVMTRB1 chunk: empty task record stream");
  out.reserve(out.size() + static_cast<std::size_t>(n));
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint8_t flags = cur.u8();
    if ((flags & ~kFlagKnownMask) != 0)
      throw TraceError("UVMTRB1 chunk: unknown record flag bits");
    const std::int64_t delta = unzigzag(cur.varint());
    const std::uint64_t addr = prev + static_cast<std::uint64_t>(delta);
    prev = addr;
    std::uint64_t count = 1;
    if ((flags & kFlagHasCount) != 0) {
      count = cur.varint();
      if (count == 0 || count > 0xffff)
        throw TraceError("UVMTRB1 chunk: record count out of range");
    }
    std::uint64_t gap = 0;
    if ((flags & kFlagHasGap) != 0) {
      gap = cur.varint();
      if (gap > 0xffff) throw TraceError("UVMTRB1 chunk: record gap out of range");
    }
    if (addr >= span_end || count * kWarpAccessBytes > span_end - addr)
      throw TraceError("UVMTRB1 chunk: access outside the allocated span");
    Access a;
    a.addr = addr;
    a.type = (flags & kFlagWrite) != 0 ? AccessType::kWrite : AccessType::kRead;
    a.count = static_cast<std::uint16_t>(count);
    a.gap = static_cast<std::uint16_t>(gap);
    out.push_back(a);
  }
}

void encode_task(std::string& payload, const std::vector<Access>& accesses) {
  put_varint(payload, accesses.size());
  std::uint64_t prev = 0;
  for (const Access& a : accesses) {
    std::uint8_t flags = 0;
    if (a.type == AccessType::kWrite) flags |= kFlagWrite;
    if (a.count != 1) flags |= kFlagHasCount;
    if (a.gap != 0) flags |= kFlagHasGap;
    payload.push_back(static_cast<char>(flags));
    const std::int64_t delta =
        static_cast<std::int64_t>(a.addr) - static_cast<std::int64_t>(prev);
    put_varint(payload, zigzag(delta));
    prev = a.addr;
    if ((flags & kFlagHasCount) != 0) put_varint(payload, a.count);
    if ((flags & kFlagHasGap) != 0) put_varint(payload, a.gap);
  }
}

/// Rebuild the allocation span a trace describes; the decode-time bound for
/// out-of-range addresses. Throws TraceError on a nonsensical layout.
[[nodiscard]] std::uint64_t rebuild_span(const std::vector<TraceAllocInfo>& allocs) {
  AddressSpace space;
  for (const TraceAllocInfo& a : allocs) {
    if (a.user_size == 0) throw TraceError("UVMTRB1 footer: zero-sized allocation");
    try {
      (void)space.allocate(a.name, a.user_size);
    } catch (const std::exception& e) {
      throw TraceError(std::string("UVMTRB1 footer: bad allocation layout: ") + e.what());
    }
  }
  return space.span_end();
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t len, std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// --------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(std::ostream& os, Provenance prov, Limits limits)
    : os_(os), prov_(std::move(prov)), limits_(limits), hash_(kFnvOffset) {
  if (limits_.max_tasks_per_chunk == 0) limits_.max_tasks_per_chunk = 1;
  hashed_write(kTrbMagic.data(), kTrbMagic.size());
  const std::uint32_t version = kTrbVersion;
  const std::uint32_t flags = 0;
  hashed_write(&version, sizeof version);
  hashed_write(&flags, sizeof flags);
  hashed_write(&prov_.config_digest, sizeof prov_.config_digest);
  // footer_offset and total_records: placeholders, patched by finalize()
  // (and mixed into the content hash there, once their values are known).
  const std::uint64_t zero = 0;
  os_.write(reinterpret_cast<const char*>(&zero), sizeof zero);
  os_.write(reinterpret_cast<const char*>(&zero), sizeof zero);
  pos_ += 2 * sizeof zero;
}

void TraceWriter::hashed_write(const void* data, std::size_t len) {
  hash_ = fnv1a64(data, len, hash_);
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
  pos_ += len;
}

void TraceWriter::on_layout(const AddressSpace& space) {
  std::vector<TraceAllocInfo> allocs;
  allocs.reserve(space.allocations().size());
  for (const Allocation& a : space.allocations())
    allocs.push_back(TraceAllocInfo{a.name, a.user_size});
  set_allocations(std::move(allocs));
}

void TraceWriter::set_allocations(std::vector<TraceAllocInfo> allocs) {
  allocs_ = std::move(allocs);
}

void TraceWriter::begin_launch(const std::string& kernel) {
  if (finalized_) throw std::logic_error("TraceWriter: begin_launch after finalize");
  flush_chunk();
  TraceLaunchInfo l;
  l.kernel = kernel;
  l.first_chunk = chunks_.size();
  launches_.push_back(std::move(l));
}

void TraceWriter::append_task(const std::vector<Access>& accesses) {
  if (finalized_) throw std::logic_error("TraceWriter: append_task after finalize");
  if (accesses.empty()) return;  // empty tasks are never recorded
  if (launches_.empty()) begin_launch("<implicit>");
  if (chunk_tasks_ == 0) chunk_first_task_ = launches_.back().num_tasks;
  encode_task(payload_, accesses);
  ++chunk_tasks_;
  ++launches_.back().num_tasks;
  launches_.back().num_records += accesses.size();
  total_records_ += accesses.size();
  ++total_tasks_;
  if (chunk_tasks_ >= limits_.max_tasks_per_chunk ||
      payload_.size() >= limits_.soft_payload_bytes) {
    flush_chunk();
  }
}

void TraceWriter::flush_chunk() {
  if (chunk_tasks_ == 0) return;
  TraceChunkInfo c;
  c.launch = static_cast<std::uint32_t>(launches_.size() - 1);
  c.first_task = chunk_first_task_;
  c.num_tasks = chunk_tasks_;
  c.offset = pos_;
  c.payload_bytes = payload_.size();
  ++launches_.back().num_chunks;

  std::string header;
  header.push_back(kChunkTag);
  put_varint(header, c.launch);
  put_varint(header, c.first_task);
  put_varint(header, c.num_tasks);
  put_varint(header, c.payload_bytes);
  hashed_write(header.data(), header.size());
  hashed_write(payload_.data(), payload_.size());

  chunks_.push_back(c);
  payload_.clear();
  chunk_tasks_ = 0;
}

void TraceWriter::finalize() {
  if (finalized_) throw std::logic_error("TraceWriter: finalize called twice");
  flush_chunk();
  const std::uint64_t footer_offset = pos_;
  // The two patched header fields join the hash here, once their final
  // values are known — so a flipped byte anywhere in [24, 40) is caught by
  // verify() exactly like any other corruption.
  hash_ = fnv1a64(&footer_offset, sizeof footer_offset, hash_);
  hash_ = fnv1a64(&total_records_, sizeof total_records_, hash_);

  std::string footer;
  footer.push_back(kFooterTag);
  put_varint(footer, allocs_.size());
  for (const TraceAllocInfo& a : allocs_) {
    put_string(footer, a.name);
    put_varint(footer, a.user_size);
  }
  put_varint(footer, launches_.size());
  for (const TraceLaunchInfo& l : launches_) {
    put_string(footer, l.kernel);
    put_varint(footer, l.num_tasks);
    put_varint(footer, l.num_records);
    put_varint(footer, l.first_chunk);
    put_varint(footer, l.num_chunks);
  }
  put_varint(footer, chunks_.size());
  for (const TraceChunkInfo& c : chunks_) {
    put_varint(footer, c.launch);
    put_varint(footer, c.first_task);
    put_varint(footer, c.num_tasks);
    put_varint(footer, c.offset);
    put_varint(footer, c.payload_bytes);
  }
  put_string(footer, prov_.workload);
  put_varint(footer, prov_.seed);
  hashed_write(footer.data(), footer.size());
  os_.write(reinterpret_cast<const char*>(&hash_), sizeof hash_);
  pos_ += sizeof hash_;

  os_.seekp(24);
  os_.write(reinterpret_cast<const char*>(&footer_offset), sizeof footer_offset);
  os_.write(reinterpret_cast<const char*>(&total_records_), sizeof total_records_);
  os_.seekp(0, std::ios::end);
  if (!os_) throw TraceError("TraceWriter: stream write failed (need a seekable sink)");
  finalized_ = true;
}

// --------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(std::string path) : path_(std::move(path)) {
  is_.open(path_, std::ios::binary | std::ios::ate);
  if (!is_) throw TraceError("UVMTRB1: cannot open " + path_);
  file_bytes_ = static_cast<std::uint64_t>(is_.tellg());
  // Smallest well-formed file: header + 'F' + five zero counts + empty
  // provenance + seed + hash.
  if (file_bytes_ < 40 + 1 + 8) throw TraceError("UVMTRB1: truncated file " + path_);

  unsigned char header[40];
  is_.seekg(0);
  is_.read(reinterpret_cast<char*>(header), sizeof header);
  if (!is_) throw TraceError("UVMTRB1: truncated header in " + path_);
  if (std::memcmp(header, kTrbMagic.data(), kTrbMagic.size()) != 0)
    throw TraceError("UVMTRB1: bad magic in " + path_);
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::memcpy(&version, header + 8, sizeof version);
  std::memcpy(&flags, header + 12, sizeof flags);
  if (version != kTrbVersion)
    throw TraceError("UVMTRB1: unsupported version " + std::to_string(version) + " in " +
                     path_);
  if (flags != 0) throw TraceError("UVMTRB1: unsupported header flags in " + path_);
  std::memcpy(&meta_.config_digest, header + 16, sizeof meta_.config_digest);
  std::memcpy(&footer_offset_, header + 24, sizeof footer_offset_);
  std::memcpy(&meta_.total_records, header + 32, sizeof meta_.total_records);
  meta_.version = version;

  // Overflow-safe form of `footer_offset_ + 9 > file_bytes_`: the stored
  // offset is untrusted, and values near 2^64 would wrap the addition past
  // the check (then underflow footer_len below). file_bytes_ >= 49 here.
  if (footer_offset_ < sizeof header || footer_offset_ > file_bytes_ - 9)
    throw TraceError("UVMTRB1: footer offset out of range in " + path_);

  // Parse the footer (directory + provenance + stored hash).
  const std::size_t footer_len = static_cast<std::size_t>(file_bytes_ - footer_offset_);
  std::vector<unsigned char> footer(footer_len);
  is_.seekg(static_cast<std::streamoff>(footer_offset_));
  is_.read(reinterpret_cast<char*>(footer.data()), static_cast<std::streamsize>(footer_len));
  if (!is_) throw TraceError("UVMTRB1: truncated footer in " + path_);
  std::memcpy(&stored_hash_, footer.data() + footer_len - 8, sizeof stored_hash_);

  Cursor cur{footer.data(), footer.data() + footer_len - 8, "UVMTRB1 footer"};
  if (cur.u8() != static_cast<std::uint8_t>(kFooterTag))
    throw TraceError("UVMTRB1: bad footer tag in " + path_);
  const std::uint64_t num_allocs = cur.varint();
  if (num_allocs > kMaxAllocs) throw TraceError("UVMTRB1 footer: absurd allocation count");
  meta_.allocations.reserve(static_cast<std::size_t>(num_allocs));
  for (std::uint64_t i = 0; i < num_allocs; ++i) {
    TraceAllocInfo a;
    a.name = cur.str(kMaxNameLen);
    a.user_size = cur.varint();
    meta_.allocations.push_back(std::move(a));
  }
  const std::uint64_t num_launches = cur.varint();
  if (num_launches > kMaxLaunches) throw TraceError("UVMTRB1 footer: absurd launch count");
  meta_.launches.reserve(static_cast<std::size_t>(num_launches));
  for (std::uint64_t i = 0; i < num_launches; ++i) {
    TraceLaunchInfo l;
    l.kernel = cur.str(kMaxNameLen);
    l.num_tasks = cur.varint();
    l.num_records = cur.varint();
    l.first_chunk = cur.varint();
    l.num_chunks = cur.varint();
    meta_.launches.push_back(std::move(l));
  }
  const std::uint64_t num_chunks = cur.varint();
  if (num_chunks > kMaxChunks) throw TraceError("UVMTRB1 footer: absurd chunk count");
  chunks_.reserve(static_cast<std::size_t>(num_chunks));
  for (std::uint64_t i = 0; i < num_chunks; ++i) {
    TraceChunkInfo c;
    const std::uint64_t launch = cur.varint();
    if (launch >= num_launches)
      throw TraceError("UVMTRB1 footer: chunk references unknown launch");
    c.launch = static_cast<std::uint32_t>(launch);
    c.first_task = cur.varint();
    const std::uint64_t tasks = cur.varint();
    if (tasks == 0 || tasks > std::numeric_limits<std::uint32_t>::max())
      throw TraceError("UVMTRB1 footer: chunk task count out of range");
    c.num_tasks = static_cast<std::uint32_t>(tasks);
    c.offset = cur.varint();
    c.payload_bytes = cur.varint();
    if (c.offset < 40 || c.offset >= footer_offset_ ||
        c.payload_bytes > footer_offset_ - c.offset)
      throw TraceError("UVMTRB1 footer: chunk frame outside the chunk region");
    chunks_.push_back(c);
  }
  meta_.workload = cur.str(kMaxNameLen);
  meta_.seed = cur.varint();
  if (cur.remaining() != 0) throw TraceError("UVMTRB1 footer: trailing bytes in " + path_);

  // Cross-check the directory: launches partition the chunk list in order,
  // chunk task ranges tile each launch, record totals add up.
  std::uint64_t chunk_cursor = 0;
  std::uint64_t record_total = 0;
  for (std::size_t li = 0; li < meta_.launches.size(); ++li) {
    const TraceLaunchInfo& l = meta_.launches[li];
    if (l.first_chunk != chunk_cursor ||
        l.num_chunks > chunks_.size() - chunk_cursor)
      throw TraceError("UVMTRB1 footer: launch chunk ranges do not partition the directory");
    std::uint64_t task_cursor = 0;
    for (std::uint64_t ci = 0; ci < l.num_chunks; ++ci) {
      const TraceChunkInfo& c = chunks_[static_cast<std::size_t>(chunk_cursor + ci)];
      if (c.launch != li || c.first_task != task_cursor)
        throw TraceError("UVMTRB1 footer: chunk directory disagrees with launch directory");
      task_cursor += c.num_tasks;
    }
    if (task_cursor != l.num_tasks)
      throw TraceError("UVMTRB1 footer: launch task count disagrees with its chunks");
    if (l.num_tasks > 0 && l.num_records == 0)
      throw TraceError("UVMTRB1 footer: launch with tasks but no records");
    chunk_cursor += l.num_chunks;
    record_total += l.num_records;
  }
  if (chunk_cursor != chunks_.size())
    throw TraceError("UVMTRB1 footer: orphan chunks outside any launch");
  if (record_total != meta_.total_records)
    throw TraceError("UVMTRB1 footer: record totals disagree with the header");

  span_end_ = rebuild_span(meta_.allocations);
}

void TraceReader::load_chunk(std::size_t chunk_index) {
  const TraceChunkInfo& c = chunks_[chunk_index];
  // Frame header: tag + four varints, at most 41 bytes.
  unsigned char hdr[48];
  const std::size_t hdr_avail = static_cast<std::size_t>(
      std::min<std::uint64_t>(sizeof hdr, footer_offset_ - c.offset));
  is_.clear();
  is_.seekg(static_cast<std::streamoff>(c.offset));
  is_.read(reinterpret_cast<char*>(hdr), static_cast<std::streamsize>(hdr_avail));
  if (!is_ && is_.gcount() != static_cast<std::streamsize>(hdr_avail))
    throw TraceError("UVMTRB1: short read of chunk frame in " + path_);
  Cursor cur{hdr, hdr + hdr_avail, "UVMTRB1 chunk header"};
  if (cur.u8() != static_cast<std::uint8_t>(kChunkTag))
    throw TraceError("UVMTRB1: bad chunk tag in " + path_);
  const std::uint64_t launch = cur.varint();
  const std::uint64_t first_task = cur.varint();
  const std::uint64_t num_tasks = cur.varint();
  const std::uint64_t payload_bytes = cur.varint();
  if (launch != c.launch || first_task != c.first_task || num_tasks != c.num_tasks ||
      payload_bytes != c.payload_bytes)
    throw TraceError("UVMTRB1: chunk frame disagrees with the footer directory");
  const std::uint64_t header_len = static_cast<std::uint64_t>(cur.p - hdr);
  if (c.offset + header_len + payload_bytes > footer_offset_)
    throw TraceError("UVMTRB1: chunk payload overruns the chunk region");

  std::vector<unsigned char> payload(static_cast<std::size_t>(payload_bytes));
  is_.clear();
  is_.seekg(static_cast<std::streamoff>(c.offset + header_len));
  is_.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
  if (!is_ && is_.gcount() != static_cast<std::streamsize>(payload.size()))
    throw TraceError("UVMTRB1: short read of chunk payload in " + path_);

  std::vector<std::vector<Access>> tasks(c.num_tasks);
  Cursor body{payload.data(), payload.data() + payload.size(), "UVMTRB1 chunk"};
  std::uint64_t decoded = 0;
  for (std::uint32_t t = 0; t < c.num_tasks; ++t) {
    decode_task(body, span_end_, tasks[t]);
    decoded += tasks[t].size();
  }
  if (body.remaining() != 0)
    throw TraceError("UVMTRB1: trailing bytes in chunk payload");

  cached_tasks_.swap(tasks);
  cached_chunk_ = chunk_index;
  const std::uint64_t resident =
      decoded * sizeof(Access) + cached_tasks_.size() * sizeof(std::vector<Access>);
  if (resident > peak_decoded_) peak_decoded_ = resident;
}

void TraceReader::read_task(std::uint32_t launch, std::uint64_t task,
                            std::vector<Access>& out) {
  if (launch >= meta_.launches.size())
    throw TraceError("UVMTRB1: launch index out of range");
  const TraceLaunchInfo& l = meta_.launches[launch];
  if (task >= l.num_tasks) throw TraceError("UVMTRB1: task index out of range");

  const bool cached =
      cached_chunk_ != static_cast<std::size_t>(-1) &&
      chunks_[cached_chunk_].launch == launch &&
      task >= chunks_[cached_chunk_].first_task &&
      task < chunks_[cached_chunk_].first_task + chunks_[cached_chunk_].num_tasks;
  if (!cached) {
    // Binary search the launch's chunk range for the frame holding `task`.
    std::size_t lo = static_cast<std::size_t>(l.first_chunk);
    std::size_t hi = lo + static_cast<std::size_t>(l.num_chunks);
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (chunks_[mid].first_task <= task) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    load_chunk(lo);
  }
  const TraceChunkInfo& c = chunks_[cached_chunk_];
  const std::vector<Access>& accesses =
      cached_tasks_[static_cast<std::size_t>(task - c.first_task)];
  out.insert(out.end(), accesses.begin(), accesses.end());
}

void TraceReader::verify() {
  // Pass 1: recompute the content hash over the whole file (header prefix,
  // chunk region, patched header values, footer) and compare.
  unsigned char buf[65536];
  is_.clear();
  is_.seekg(0);
  is_.read(reinterpret_cast<char*>(buf), 40);
  if (!is_) throw TraceError("UVMTRB1: truncated header in " + path_);
  std::uint64_t h = fnv1a64(buf, 24, kFnvOffset);  // [24,40) joins after the chunks
  std::uint64_t left = footer_offset_ - 40;
  while (left > 0) {
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(left, sizeof buf));
    is_.read(reinterpret_cast<char*>(buf), static_cast<std::streamsize>(take));
    if (!is_ && is_.gcount() != static_cast<std::streamsize>(take))
      throw TraceError("UVMTRB1: short read while verifying " + path_);
    h = fnv1a64(buf, take, h);
    left -= take;
  }
  h = fnv1a64(&footer_offset_, sizeof footer_offset_, h);
  h = fnv1a64(&meta_.total_records, sizeof meta_.total_records, h);
  std::uint64_t footer_left = file_bytes_ - footer_offset_ - 8;
  is_.clear();
  is_.seekg(static_cast<std::streamoff>(footer_offset_));
  while (footer_left > 0) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(footer_left, sizeof buf));
    is_.read(reinterpret_cast<char*>(buf), static_cast<std::streamsize>(take));
    if (!is_ && is_.gcount() != static_cast<std::streamsize>(take))
      throw TraceError("UVMTRB1: short read while verifying " + path_);
    h = fnv1a64(buf, take, h);
    footer_left -= take;
  }
  if (h != stored_hash_)
    throw TraceError("UVMTRB1: content hash mismatch (corrupted trace) in " + path_);

  // Pass 2: decode every chunk (frame headers are cross-checked against the
  // directory by load_chunk) and re-tally the record counts.
  std::vector<std::uint64_t> launch_records(meta_.launches.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    load_chunk(i);
    std::uint64_t records = 0;
    for (const std::vector<Access>& t : cached_tasks_) records += t.size();
    launch_records[chunks_[i].launch] += records;
    total += records;
  }
  for (std::size_t li = 0; li < meta_.launches.size(); ++li) {
    if (launch_records[li] != meta_.launches[li].num_records)
      throw TraceError("UVMTRB1: decoded record count disagrees with the directory");
  }
  if (total != meta_.total_records)
    throw TraceError("UVMTRB1: decoded record total disagrees with the header");
}

// --------------------------------------------------------------------------
// In-memory traces

void write_trb(std::ostream& os, const RecordedTrace& trace, TraceWriter::Provenance prov) {
  TraceWriter w(os, std::move(prov));
  std::vector<TraceAllocInfo> allocs;
  allocs.reserve(trace.allocations.size());
  for (const auto& [name, size] : trace.allocations)
    allocs.push_back(TraceAllocInfo{name, size});
  w.set_allocations(std::move(allocs));
  std::vector<Access> task;
  for (const RecordedLaunch& l : trace.launches) {
    if (l.records.empty()) continue;  // TraceWorkload skips these too
    w.begin_launch(l.kernel);
    const auto begin = l.records.begin();
    for (std::size_t first = 0; first < l.records.size(); first += kRecordsPerTask) {
      const std::size_t last = std::min(l.records.size(), first + kRecordsPerTask);
      task.assign(begin + static_cast<std::ptrdiff_t>(first),
                  begin + static_cast<std::ptrdiff_t>(last));
      w.append_task(task);
    }
  }
  w.finalize();
}

RecordedTrace read_trb_as_recorded(const std::string& path) {
  TraceReader reader(path);
  reader.verify();
  RecordedTrace out;
  for (const TraceAllocInfo& a : reader.meta().allocations)
    out.allocations.emplace_back(a.name, a.user_size);
  for (std::uint32_t li = 0; li < reader.meta().launches.size(); ++li) {
    const TraceLaunchInfo& l = reader.meta().launches[li];
    RecordedLaunch& rl = out.launches.emplace_back();
    rl.kernel = l.kernel;
    rl.records.reserve(static_cast<std::size_t>(l.num_records));
    for (std::uint64_t t = 0; t < l.num_tasks; ++t) reader.read_task(li, t, rl.records);
  }
  return out;
}

}  // namespace uvmsim
