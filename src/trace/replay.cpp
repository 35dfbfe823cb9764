#include "trace/replay.hpp"

#include <algorithm>
#include <stdexcept>

namespace uvmsim {

std::uint64_t RecordedTrace::total_records() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : launches) n += l.records.size();
  return n;
}

namespace {

class ReplayKernel final : public Kernel {
 public:
  explicit ReplayKernel(const RecordedLaunch& launch) : launch_(launch) {}

  [[nodiscard]] std::string name() const override { return launch_.kernel + "@replay"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(launch_.records.size(), kRecordsPerTask);
  }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const std::size_t first = task * kRecordsPerTask;
    const std::size_t last = std::min(launch_.records.size(), first + kRecordsPerTask);
    const auto begin = launch_.records.begin();
    out.insert(out.end(), begin + static_cast<std::ptrdiff_t>(first),
               begin + static_cast<std::ptrdiff_t>(last));
  }

 private:
  const RecordedLaunch& launch_;
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
    seq.push_back(std::make_shared<ReplayKernel>(l));
  }
  if (seq.empty()) throw std::invalid_argument("TraceWorkload: empty trace");
  return seq;
}

}  // namespace uvmsim
