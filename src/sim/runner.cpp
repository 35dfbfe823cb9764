#include "sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "sim/thread_pool.hpp"

namespace uvmsim {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

}  // namespace

RunResult run_request(const RunRequest& request, const RunOptions& opts) {
  SimConfig cfg = request.config;
  cfg.mem.oversubscription = request.oversub;
  Simulator sim(cfg);
  if (request.trace) {
    TraceWorkload workload(*request.trace);
    return sim.run(workload, opts);
  }
  auto workload = make_workload(request.workload, request.params);
  return sim.run(*workload, opts);
}

BatchResult run_batch(const std::vector<RunRequest>& requests, const BatchOptions& opts) {
  BatchResult batch;
  batch.entries.resize(requests.size());

  unsigned jobs = opts.jobs != 0 ? opts.jobs
                                 : std::max(1u, std::thread::hardware_concurrency());
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(1, requests.size())));
  batch.jobs = jobs;

  const auto batch_start = Clock::now();
  std::mutex done_mutex;
  std::size_t done = 0;

  auto execute = [&](std::size_t i) {
    BatchEntry& entry = batch.entries[i];
    entry.request = requests[i];
    const auto run_start = Clock::now();
    try {
      const RunOptions run_opts =
          opts.make_options ? opts.make_options(requests[i], i) : RunOptions{};
      entry.result = run_request(requests[i], run_opts);
    } catch (const std::exception& e) {
      entry.error = e.what();
      if (entry.error.empty()) entry.error = "unknown error";
    } catch (...) {
      entry.error = "unknown error";
    }
    entry.wall_ms = elapsed_ms(run_start);
    const std::lock_guard<std::mutex> lock(done_mutex);
    ++done;
    if (opts.on_done) opts.on_done(entry, done, requests.size());
  };

  if (jobs == 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) execute(i);
  } else {
    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      pool.submit([&execute, i] { execute(i); });
    }
    pool.wait_idle();
  }

  batch.wall_ms = elapsed_ms(batch_start);
  for (const BatchEntry& entry : batch.entries) {
    if (!entry.ok()) ++batch.failed;
  }
  return batch;
}

}  // namespace uvmsim
