#include "check/fuzz.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "policy/policy_registry.hpp"
#include "sim/config_parse.hpp"
#include "sim/runner.hpp"
#include "trace/trace_binary.hpp"

namespace uvmsim {
namespace {

const char* advice_name(MemAdvice a) noexcept {
  switch (a) {
    case MemAdvice::kNone: return "none";
    case MemAdvice::kAccessedBy: return "accessed-by";
    case MemAdvice::kPreferredHost: return "preferred-host";
  }
  return "?";
}

MemAdvice parse_advice(const std::string& s) {
  if (s == "none") return MemAdvice::kNone;
  if (s == "accessed-by") return MemAdvice::kAccessedBy;
  if (s == "preferred-host") return MemAdvice::kPreferredHost;
  throw std::runtime_error("fuzz sidecar: unknown advice '" + s + "'");
}

InjectedFault parse_fault(const std::string& s) {
  for (InjectedFault f : {InjectedFault::kNone, InjectedFault::kFlipResidency,
                          InjectedFault::kSkipHalving, InjectedFault::kRoundTripOffByOne}) {
    if (s == to_cstr(f)) return f;
  }
  throw std::runtime_error("fuzz sidecar: unknown fault '" + s + "'");
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// The model observes the run through the sink; these two must hold no matter
// what the generator or a sidecar produced.
SimConfig normalized_config(const FuzzCase& fc) {
  SimConfig cfg = fc.config;
  cfg.collect_traces = true;
  cfg.copy_then_execute = false;  // preload emits no observation hooks
  return cfg;
}

RunRequest make_request(const FuzzCase& fc) {
  RunRequest req;
  req.config = normalized_config(fc);
  // run_request() overwrites mem.oversubscription from the request field.
  req.oversub = req.config.mem.oversubscription;
  req.trace = fc.trace;
  req.label = fc.label;
  return req;
}

void apply_advice(const FuzzCase& fc, AddressSpace& space) {
  const auto& allocs = space.allocations();
  for (std::size_t i = 0; i < allocs.size() && i < fc.advice.size(); ++i) {
    if (fc.advice[i] != MemAdvice::kNone) space.advise(allocs[i].id, fc.advice[i]);
  }
}

// Delete the flattened record window [begin, begin+len), preserving launch
// structure (launches may become empty; replay skips those).
RecordedTrace remove_window(const RecordedTrace& t, std::uint64_t begin, std::uint64_t len) {
  RecordedTrace out;
  out.allocations = t.allocations;
  std::uint64_t idx = 0;
  for (const RecordedLaunch& l : t.launches) {
    RecordedLaunch nl;
    nl.kernel = l.kernel;
    for (const Access& r : l.records) {
      if (idx < begin || idx >= begin + len) nl.records.push_back(r);
      ++idx;
    }
    out.launches.push_back(std::move(nl));
  }
  return out;
}

}  // namespace

CaseOutcome run_case(const FuzzCase& fc, InjectedFault inject) {
  const SimConfig cfg = normalized_config(fc);
  RefModel model(cfg, inject);
  RunRequest req = make_request(fc);
  RunOptions opts;
  opts.trace_sink = &model;
  opts.advice_hook = [&fc, &model](AddressSpace& space) {
    apply_advice(fc, space);
    model.capture_layout(space);
  };

  CaseOutcome out;
  try {
    (void)run_request(req, opts);
    model.finish();
  } catch (const std::exception& e) {
    out.interesting = true;
    out.message = std::string("run failed: ") + e.what();
    out.accesses = model.accesses_seen();
    return out;
  }
  if (model.diverged()) {
    out.interesting = true;
    out.message = model.divergence();
  }
  out.accesses = model.accesses_seen();
  return out;
}

FuzzCase shrink_case(const FuzzCase& fc, InjectedFault inject, std::string* final_message) {
  FuzzCase cur = fc;
  const CaseOutcome first = run_case(cur, inject);
  if (!first.interesting) {
    if (final_message) *final_message = "not reproducible";
    return cur;
  }
  std::string msg = first.message;

  auto try_reduce = [&](const RecordedTrace& cand) {
    FuzzCase c = cur;
    c.trace = std::make_shared<RecordedTrace>(cand);
    const CaseOutcome o = run_case(c, inject);
    if (!o.interesting) return false;
    msg = o.message;
    return true;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    const std::uint64_t n = cur.trace->total_records();
    if (n <= 1) break;
    for (std::uint64_t win = std::max<std::uint64_t>(1, n / 2);; win /= 2) {
      std::uint64_t i = 0;
      while (i < cur.trace->total_records()) {
        RecordedTrace cand = remove_window(*cur.trace, i, win);
        if (cand.total_records() >= 1 && cand.total_records() < cur.trace->total_records() &&
            try_reduce(cand)) {
          cur.trace = std::make_shared<RecordedTrace>(std::move(cand));
          progress = true;  // window i now holds fresh records; retry in place
        } else {
          i += win;
        }
      }
      if (win == 1) break;
    }
  }
  if (final_message) *final_message = msg;
  return cur;
}

void save_case(const FuzzCase& fc, InjectedFault fault, const std::string& trace_path,
               const std::string& config_path) {
  {
    std::ofstream os(trace_path, std::ios::binary);
    if (!os) throw std::runtime_error("fuzz: cannot write " + trace_path);
    write_trb(os, *fc.trace, {fc.label, fc.seed, config_digest(normalized_config(fc))});
    if (!os) throw std::runtime_error("fuzz: short write to " + trace_path);
  }
  std::ofstream os(config_path);
  if (!os) throw std::runtime_error("fuzz: cannot write " + config_path);
  os << "# uvmsim_fuzz repro sidecar (" << fc.label << ")\n"
     << "# replay: uvmsim_fuzz --replay <trace.trb> <this file>\n"
     << "fuzz.seed = " << fc.seed << '\n'
     << "fuzz.fault = " << to_cstr(fault) << '\n';
  os << "fuzz.advice =";
  for (std::size_t i = 0; i < fc.advice.size(); ++i) {
    os << (i == 0 ? " " : ",") << advice_name(fc.advice[i]);
  }
  os << '\n' << to_config_string(fc.config);
  if (!os) throw std::runtime_error("fuzz: short write to " + config_path);
}

FuzzCase load_case(const std::string& trace_path, const std::string& config_path,
                   InjectedFault* fault_out) {
  FuzzCase fc;
  fc.trace = std::make_shared<RecordedTrace>(read_trb_as_recorded(trace_path));

  std::ifstream is(config_path);
  if (!is) throw std::runtime_error("fuzz: cannot read " + config_path);
  std::string line;
  std::ostringstream cfg_text;
  InjectedFault fault = InjectedFault::kNone;
  while (std::getline(is, line)) {
    const std::string t = trim(line);
    if (t.rfind("fuzz.", 0) != 0) {
      cfg_text << line << '\n';  // config_parse handles comments and blanks
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("fuzz sidecar: malformed line '" + t + "'");
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key == "fuzz.seed") {
      if (!parse_u64(value.c_str(), fc.seed))
        throw std::runtime_error("fuzz sidecar: bad fuzz.seed '" + value + "'");
    } else if (key == "fuzz.fault") {
      fault = parse_fault(value);
    } else if (key == "fuzz.advice") {
      fc.advice.clear();
      std::istringstream vs(value);
      std::string tok;
      while (std::getline(vs, tok, ',')) fc.advice.push_back(parse_advice(trim(tok)));
    } else {
      throw std::runtime_error("fuzz sidecar: unknown key '" + key + "'");
    }
  }
  std::istringstream cs(cfg_text.str());
  load_config_stream(fc.config, cs);
  fc.config.validate();
  fc.label = "replay:" + trace_path;
  if (fault_out) *fault_out = fault;
  return fc;
}

FuzzReport run_fuzz(const FuzzOptions& o) {
  // Generate the batch up front; every Nth case mutates an earlier trace
  // under that case's own config so allocations stay consistent.
  std::vector<FuzzCase> cases;
  cases.reserve(o.iterations);
  std::uint64_t sm = o.seed ^ 0xa5a5f02ddeadbeefull;
  Rng mut_rng(splitmix64(sm));
  if (!o.trace_path.empty()) {
    // Trace-seeded campaign: the captured trace is the whole corpus. Case 0
    // replays it verbatim; later cases replay fresh mutants, rotating over
    // the four paper policies so the oracle exercises every decision path.
    const auto base = std::make_shared<RecordedTrace>(read_trb_as_recorded(o.trace_path));
    static constexpr const char* kPaperSlugs[] = {"baseline", "always", "oversub", "adaptive"};
    for (std::uint64_t i = 0; i < o.iterations; ++i) {
      FuzzCase fc;
      fc.seed = o.seed + i;
      fc.config.mem.oversubscription = 1.3333;
      fc.config.mem.eviction = EvictionKind::kLfu;
      (void)apply_policy_name(fc.config.policy, kPaperSlugs[i % 4]);
      fc.label = "trace:" + o.trace_path + (i == 0 ? "" : "+mut");
      fc.trace = i == 0 ? base
                        : std::make_shared<RecordedTrace>(mutate_trace(*base, mut_rng));
      cases.push_back(std::move(fc));
    }
  } else {
    for (std::uint64_t i = 0; i < o.iterations; ++i) {
      if (o.mutate_every != 0 && i > 0 && (i + 1) % o.mutate_every == 0) {
        const std::uint64_t j = mut_rng.below(i);
        FuzzCase fc = cases[j];
        fc.trace = std::make_shared<RecordedTrace>(mutate_trace(*cases[j].trace, mut_rng));
        fc.label += "+mut";
        cases.push_back(std::move(fc));
      } else {
        cases.push_back(generate_case(o.seed, i, o.gen));
      }
    }
  }
  if (!o.policy_slug.empty()) {
    // Pin every case (mutated ones included) to the requested policy; an
    // unregistered slug is a caller bug, not a fuzzing finding.
    for (FuzzCase& fc : cases) {
      if (!apply_policy_name(fc.config.policy, o.policy_slug))
        throw std::invalid_argument("run_fuzz: unknown policy '" + o.policy_slug +
                                    "' (registered: " + registered_policy_names() + ")");
    }
  }

  std::vector<std::unique_ptr<RefModel>> models;
  models.reserve(cases.size());
  std::vector<RunRequest> requests;
  requests.reserve(cases.size());
  for (const FuzzCase& fc : cases) {
    models.push_back(std::make_unique<RefModel>(normalized_config(fc), o.inject));
    requests.push_back(make_request(fc));
  }

  BatchOptions bo;
  bo.jobs = o.jobs;
  bo.make_options = [&cases, &models](const RunRequest&, std::size_t i) {
    RunOptions ro;
    ro.trace_sink = models[i].get();
    ro.advice_hook = [&cases, &models, i](AddressSpace& space) {
      apply_advice(cases[i], space);
      models[i]->capture_layout(space);
    };
    return ro;
  };
  if (o.progress) {
    bo.on_done = [&o](const BatchEntry&, std::size_t done, std::size_t total) {
      o.progress(done, total);
    };
  }
  const BatchResult batch = run_batch(requests, bo);

  FuzzReport report;
  report.iterations = o.iterations;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::string msg;
    if (!batch.entries[i].ok()) {
      msg = "run failed: " + batch.entries[i].error;
    } else {
      models[i]->finish();
      if (models[i]->diverged()) msg = models[i]->divergence();
    }
    if (msg.empty()) continue;
    ++report.divergences;
    if (report.findings.size() >= o.max_findings) continue;

    FuzzFinding f;
    f.case_index = i;
    f.message = msg;
    f.original_records = cases[i].trace->total_records();
    f.reduced = o.shrink ? shrink_case(cases[i], o.inject, &f.message) : cases[i];
    f.reduced_records = f.reduced.trace->total_records();
    if (!o.corpus_dir.empty()) {
      const std::string stem = std::string(to_cstr(o.inject)) + "_seed" +
                               std::to_string(o.seed) + "_case" + std::to_string(i);
      f.trace_path = o.corpus_dir + "/" + stem + ".trb";
      f.config_path = o.corpus_dir + "/" + stem + ".cfg";
      save_case(f.reduced, o.inject, f.trace_path, f.config_path);
    }
    report.findings.push_back(std::move(f));
  }
  return report;
}

}  // namespace uvmsim
