// Internal registry of workload factories (one per benchmark).
#pragma once

#include <memory>

#include "workloads/workload.hpp"

namespace uvmsim {

std::unique_ptr<Workload> make_backprop(const WorkloadParams& p);
std::unique_ptr<Workload> make_fdtd(const WorkloadParams& p);
std::unique_ptr<Workload> make_hotspot(const WorkloadParams& p);
std::unique_ptr<Workload> make_srad(const WorkloadParams& p);
std::unique_ptr<Workload> make_bfs(const WorkloadParams& p);
std::unique_ptr<Workload> make_nw(const WorkloadParams& p);
std::unique_ptr<Workload> make_ra(const WorkloadParams& p);
std::unique_ptr<Workload> make_sssp(const WorkloadParams& p);

// Extra workloads (not in the paper; used by the generalization bench).
std::unique_ptr<Workload> make_spmv(const WorkloadParams& p);
std::unique_ptr<Workload> make_pagerank(const WorkloadParams& p);
std::unique_ptr<Workload> make_kmeans(const WorkloadParams& p);
std::unique_ptr<Workload> make_histogram(const WorkloadParams& p);

}  // namespace uvmsim
