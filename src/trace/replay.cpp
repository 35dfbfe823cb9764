#include "trace/replay.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace uvmsim {

namespace {

constexpr std::array<char, 8> kMagic{'U', 'V', 'M', 'T', 'R', 'C', '1', '\0'};

template <typename T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("RecordedTrace: truncated input");
  return v;
}

void put_string(std::ostream& os, const std::string& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_string(std::istream& is) {
  const auto len = get<std::uint32_t>(is);
  if (len > (1u << 20)) throw std::runtime_error("RecordedTrace: absurd string length");
  std::string s(len, '\0');
  is.read(s.data(), len);
  if (!is) throw std::runtime_error("RecordedTrace: truncated string");
  return s;
}

}  // namespace

std::uint64_t RecordedTrace::total_records() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : launches) n += l.records.size();
  return n;
}

void RecordedTrace::save(std::ostream& os) const {
  os.write(kMagic.data(), kMagic.size());
  put<std::uint32_t>(os, static_cast<std::uint32_t>(allocations.size()));
  for (const auto& [name, size] : allocations) {
    put_string(os, name);
    put<std::uint64_t>(os, size);
  }
  put<std::uint32_t>(os, static_cast<std::uint32_t>(launches.size()));
  for (const auto& l : launches) {
    put_string(os, l.kernel);
    put<std::uint64_t>(os, l.records.size());
    for (const TraceRecord& r : l.records) {
      put<std::uint64_t>(os, r.addr);
      put<std::uint16_t>(os, r.count);
      put<std::uint8_t>(os, static_cast<std::uint8_t>(r.type));
      put<std::uint8_t>(os, 0);
      put<std::uint16_t>(os, r.gap);
    }
  }
}

RecordedTrace RecordedTrace::load(std::istream& is) {
  std::array<char, 8> magic{};
  is.read(magic.data(), magic.size());
  if (!is || magic != kMagic) throw std::runtime_error("RecordedTrace: bad magic");

  RecordedTrace t;
  const auto num_allocs = get<std::uint32_t>(is);
  t.allocations.reserve(num_allocs);
  for (std::uint32_t i = 0; i < num_allocs; ++i) {
    std::string name = get_string(is);
    const auto size = get<std::uint64_t>(is);
    t.allocations.emplace_back(std::move(name), size);
  }
  const auto num_launches = get<std::uint32_t>(is);
  t.launches.resize(num_launches);
  for (auto& l : t.launches) {
    l.kernel = get_string(is);
    const auto n = get<std::uint64_t>(is);
    l.records.resize(n);
    for (auto& r : l.records) {
      r.addr = get<std::uint64_t>(is);
      r.count = get<std::uint16_t>(is);
      r.type = static_cast<AccessType>(get<std::uint8_t>(is));
      (void)get<std::uint8_t>(is);
      r.gap = get<std::uint16_t>(is);
    }
  }
  return t;
}

namespace {

class ReplayKernel final : public Kernel {
 public:
  ReplayKernel(const RecordedLaunch& launch, std::uint64_t per_task)
      : launch_(launch), per_task_(per_task) {}

  [[nodiscard]] std::string name() const override { return launch_.kernel + "@replay"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(launch_.records.size(), per_task_);
  }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const std::size_t first = task * per_task_;
    const std::size_t last = std::min(launch_.records.size(), first + per_task_);
    out.reserve(out.size() + (last - first));
    for (std::size_t i = first; i < last; ++i) {
      const TraceRecord& r = launch_.records[i];
      out.push_back(Access{r.addr, r.type, r.count, r.gap});
    }
  }

 private:
  const RecordedLaunch& launch_;
  std::uint64_t per_task_;
};

}  // namespace

void TraceWorkload::build(AddressSpace& space) {
  if (trace_.allocations.empty())
    throw std::invalid_argument("TraceWorkload: trace has no allocation layout");
  for (const auto& [name, size] : trace_.allocations) {
    (void)space.allocate(name, size);
  }
}

std::vector<std::shared_ptr<const Kernel>> TraceWorkload::schedule() const {
  std::vector<std::shared_ptr<const Kernel>> seq;
  for (const auto& l : trace_.launches) {
    if (l.records.empty()) continue;
    seq.push_back(std::make_shared<ReplayKernel>(l, 256));
  }
  if (seq.empty()) throw std::invalid_argument("TraceWorkload: empty trace");
  return seq;
}

}  // namespace uvmsim
