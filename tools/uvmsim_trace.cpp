// uvmsim-trace: inspect and verify captured UVMTRB1 traces.
//
//   uvmsim-trace info bfs.trb            # header, launches, provenance
//   uvmsim-trace verify bfs.trb          # full content-hash + structure check
//
// Exit codes: 0 ok, 2 malformed input / bad usage, 1 internal error.
#include <cstdio>
#include <string>

#include <uvmsim/uvmsim.hpp>

namespace {

using namespace uvmsim;

void usage() {
  std::printf(
      "usage: uvmsim-trace <command> FILE\n"
      "  info FILE           print trace metadata (launches, records, provenance)\n"
      "  verify FILE         recompute the content hash and re-decode every\n"
      "                      chunk; non-zero exit on any corruption\n"
      "The UVMTRB1 format is documented in docs/TRACES.md.\n");
}

int cmd_info(const std::string& path) {
  TraceReader reader(path);  // throws TraceError on anything malformed
  const TraceMeta& m = reader.meta();
  std::printf("format:      UVMTRB1 v%u\n", m.version);
  std::printf("workload:    %s\n", m.workload.empty() ? "(unknown)" : m.workload.c_str());
  std::printf("seed:        %llu\n", static_cast<unsigned long long>(m.seed));
  std::printf("config:      %016llx\n", static_cast<unsigned long long>(m.config_digest));
  std::printf("allocations: %zu\n", m.allocations.size());
  std::printf("launches:    %zu\n", m.launches.size());
  std::printf("records:     %llu\n", static_cast<unsigned long long>(m.total_records));
  std::printf("chunks:      %zu\n", reader.chunks().size());
  std::printf("file bytes:  %llu\n", static_cast<unsigned long long>(reader.file_bytes()));
  for (const TraceLaunchInfo& l : m.launches) {
    std::printf("  launch %-20s %10llu tasks %12llu records\n", l.kernel.c_str(),
                static_cast<unsigned long long>(l.num_tasks),
                static_cast<unsigned long long>(l.num_records));
  }
  return 0;
}

int cmd_verify(const std::string& path) {
  TraceReader reader(path);
  reader.verify();  // throws TraceError on hash or structure mismatch
  std::printf("ok: UVMTRB1, %llu records, content hash verified\n",
              static_cast<unsigned long long>(reader.meta().total_records));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "--help" || cmd == "-h") {
      usage();
      return 0;
    }
    if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
    if (cmd == "verify" && argc == 3) return cmd_verify(argv[2]);
    usage();
    return 2;
  } catch (const TraceError& e) {
    std::fprintf(stderr, "trace error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
