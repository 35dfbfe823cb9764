// Regular workloads (paper §III-B): dense, sequential, repetitive access.
//   backprop — two streaming passes over layer weights, no cross-iteration
//              reuse (the no-thrash baseline of Fig 7).
//   fdtd     — iterative 3-array stencil with a few equally spaced hot lines
//              (the Fig 2a/3a pattern).
//   hotspot  — iterative 2-in/1-out stencil plus a copy-back kernel.
//   srad     — iterative 2-kernel diffusion over four arrays.
#include <memory>

#include "workloads/common.hpp"
#include "workloads/registry.hpp"

namespace uvmsim {

namespace {

// Base memory-footprint geometry (scaled by WorkloadParams::scale).
// Footprints target tens of MB so full policy sweeps stay fast while leaving
// dozens of 2 MB chunks for the eviction policies to work with.

class BackpropWorkload final : public Workload {
 public:
  explicit BackpropWorkload(WorkloadParams p) : p_(p) {}
  [[nodiscard]] std::string name() const override { return "backprop"; }

  void build(AddressSpace& space) override {
    input_ = make_region(space, "input_units", scaled_bytes(12, p_.scale));
    w1_ = make_region(space, "input_weights", scaled_bytes(16, p_.scale));
    hidden_ = make_region(space, "hidden_units", scaled_bytes(2, p_.scale));
    w2_ = make_region(space, "hidden_weights", scaled_bytes(8, p_.scale));
    out_ = make_region(space, "output_delta", scaled_bytes(4, p_.scale));
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    constexpr std::uint64_t kLine = 8ull * kWarpAccessBytes;
    MapKernel::Options opt;
    opt.count = 8;
    opt.gap = 1500;
    opt.lines_per_task = 16;

    // Forward: stream the first-layer weights, revisiting the (smaller)
    // input activations and accumulating into the hidden layer.
    auto forward = std::make_shared<MapKernel>(
        "layerforward",
        std::vector<MapKernel::Operand>{
            {w1_.base, w1_.bytes, AccessType::kRead, 0, 1},
            {input_.base, input_.bytes, AccessType::kRead, 1, 1},
            {hidden_.base, hidden_.bytes, AccessType::kWrite, 3, 1},
        },
        w1_.lines(kLine), opt);

    // Weight adjustment: stream the second-layer weights read-modify-write,
    // re-reading hidden activations and emitting output deltas.
    auto adjust = std::make_shared<MapKernel>(
        "adjust_weights",
        std::vector<MapKernel::Operand>{
            {w2_.base, w2_.bytes, AccessType::kRead, 0, 1},
            {w2_.base, w2_.bytes, AccessType::kWrite, 0, 1},
            {hidden_.base, hidden_.bytes, AccessType::kRead, 2, 1},
            {out_.base, out_.bytes, AccessType::kWrite, 1, 1},
        },
        w2_.lines(kLine), opt);

    return {forward, adjust};
  }

 private:
  WorkloadParams p_;
  Region input_, w1_, hidden_, w2_, out_;
};

class FdtdWorkload final : public Workload {
 public:
  explicit FdtdWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 5;
  }
  [[nodiscard]] std::string name() const override { return "fdtd"; }

  void build(AddressSpace& space) override {
    ex_ = make_region(space, "ex", scaled_bytes(14, p_.scale));
    ey_ = make_region(space, "ey", scaled_bytes(14, p_.scale));
    hz_ = make_region(space, "hz", scaled_bytes(14, p_.scale));
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    constexpr std::uint64_t kLine = 8ull * kWarpAccessBytes;
    MapKernel::Options opt;
    opt.count = 8;
    opt.gap = 6000;
    opt.lines_per_task = 16;

    MapKernel::Options hot = opt;
    hot.hot_line_every = 1024;  // a few equally spaced hot lines (Fig 2a)
    hot.hot_extra = 6;

    auto update_ey = std::make_shared<MapKernel>(
        "fdtd_step1",
        std::vector<MapKernel::Operand>{
            {hz_.base, hz_.bytes, AccessType::kRead, 0, 1},
            {ey_.base, ey_.bytes, AccessType::kRead, 0, 1},
            {ey_.base, ey_.bytes, AccessType::kWrite, 0, 1},
        },
        hz_.lines(kLine), hot);
    auto update_ex = std::make_shared<MapKernel>(
        "fdtd_step2",
        std::vector<MapKernel::Operand>{
            {hz_.base, hz_.bytes, AccessType::kRead, 0, 1},
            {ex_.base, ex_.bytes, AccessType::kRead, 0, 1},
            {ex_.base, ex_.bytes, AccessType::kWrite, 0, 1},
        },
        hz_.lines(kLine), opt);
    auto update_hz = std::make_shared<MapKernel>(
        "fdtd_step3",
        std::vector<MapKernel::Operand>{
            {ex_.base, ex_.bytes, AccessType::kRead, 0, 1},
            {ey_.base, ey_.bytes, AccessType::kRead, 0, 1},
            {hz_.base, hz_.bytes, AccessType::kRead, 0, 1},
            {hz_.base, hz_.bytes, AccessType::kWrite, 0, 1},
        },
        hz_.lines(kLine), opt);

    std::vector<std::shared_ptr<const Kernel>> seq;
    for (std::uint32_t i = 0; i < p_.iterations; ++i) {
      seq.push_back(update_ey);
      seq.push_back(update_ex);
      seq.push_back(update_hz);
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  Region ex_, ey_, hz_;
};

class HotspotWorkload final : public Workload {
 public:
  explicit HotspotWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 5;
  }
  [[nodiscard]] std::string name() const override { return "hotspot"; }

  void build(AddressSpace& space) override {
    temp_ = make_region(space, "temp", scaled_bytes(12, p_.scale));
    power_ = make_region(space, "power", scaled_bytes(12, p_.scale));
    result_ = make_region(space, "result", scaled_bytes(12, p_.scale));
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    constexpr std::uint64_t kLine = 8ull * kWarpAccessBytes;
    MapKernel::Options opt;
    opt.count = 8;
    opt.gap = 5200;
    opt.lines_per_task = 16;

    auto compute = std::make_shared<MapKernel>(
        "hotspot_kernel",
        std::vector<MapKernel::Operand>{
            {temp_.base, temp_.bytes, AccessType::kRead, 0, 2},  // stencil re-reads
            {power_.base, power_.bytes, AccessType::kRead, 0, 1},
            {result_.base, result_.bytes, AccessType::kWrite, 0, 1},
        },
        temp_.lines(kLine), opt);
    auto copy_back = std::make_shared<MapKernel>(
        "hotspot_copy",
        std::vector<MapKernel::Operand>{
            {result_.base, result_.bytes, AccessType::kRead, 0, 1},
            {temp_.base, temp_.bytes, AccessType::kWrite, 0, 1},
        },
        temp_.lines(kLine), opt);

    std::vector<std::shared_ptr<const Kernel>> seq;
    for (std::uint32_t i = 0; i < p_.iterations; ++i) {
      seq.push_back(compute);
      seq.push_back(copy_back);
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  Region temp_, power_, result_;
};

class SradWorkload final : public Workload {
 public:
  explicit SradWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 4;
  }
  [[nodiscard]] std::string name() const override { return "srad"; }

  void build(AddressSpace& space) override {
    j_ = make_region(space, "J", scaled_bytes(10, p_.scale));
    dn_ = make_region(space, "dN", scaled_bytes(10, p_.scale));
    ds_ = make_region(space, "dS", scaled_bytes(10, p_.scale));
    c_ = make_region(space, "c", scaled_bytes(10, p_.scale));
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    constexpr std::uint64_t kLine = 8ull * kWarpAccessBytes;
    MapKernel::Options opt;
    opt.count = 8;
    opt.gap = 6500;
    opt.lines_per_task = 16;

    auto k1 = std::make_shared<MapKernel>(
        "srad_kernel1",
        std::vector<MapKernel::Operand>{
            {j_.base, j_.bytes, AccessType::kRead, 0, 2},
            {dn_.base, dn_.bytes, AccessType::kWrite, 0, 1},
            {ds_.base, ds_.bytes, AccessType::kWrite, 0, 1},
            {c_.base, c_.bytes, AccessType::kWrite, 0, 1},
        },
        j_.lines(kLine), opt);
    auto k2 = std::make_shared<MapKernel>(
        "srad_kernel2",
        std::vector<MapKernel::Operand>{
            {c_.base, c_.bytes, AccessType::kRead, 0, 2},
            {dn_.base, dn_.bytes, AccessType::kRead, 0, 1},
            {ds_.base, ds_.bytes, AccessType::kRead, 0, 1},
            {j_.base, j_.bytes, AccessType::kWrite, 0, 1},
        },
        j_.lines(kLine), opt);

    std::vector<std::shared_ptr<const Kernel>> seq;
    for (std::uint32_t i = 0; i < p_.iterations; ++i) {
      seq.push_back(k1);
      seq.push_back(k2);
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  Region j_, dn_, ds_, c_;
};

}  // namespace

std::unique_ptr<Workload> make_backprop(const WorkloadParams& p) {
  return std::make_unique<BackpropWorkload>(p);
}
std::unique_ptr<Workload> make_fdtd(const WorkloadParams& p) {
  return std::make_unique<FdtdWorkload>(p);
}
std::unique_ptr<Workload> make_hotspot(const WorkloadParams& p) {
  return std::make_unique<HotspotWorkload>(p);
}
std::unique_ptr<Workload> make_srad(const WorkloadParams& p) {
  return std::make_unique<SradWorkload>(p);
}

}  // namespace uvmsim
