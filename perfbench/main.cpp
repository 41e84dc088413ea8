// perfbench — end-to-end and per-layer benchmark of the polyast flow.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// One process sets the workload up kSetups times (setup_s is the median),
// runs whole rounds of timed operations until S seconds have passed,
// checks every output apart from the timed section (checks.hpp), and
// prints one JSON line as the last line of stdout:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// --trace 0 prints the end-to-end metrics; --trace 1 records spans on the
// benchmark's own tracer around each layer call (layers.hpp) and prints
// the per-layer metrics. Per-input medians, within-run quartiles and each
// failed operation go to stderr. DIR receives the JIT caches and compiler
// temporaries of the run, which are removed before exit.
//
// The operations of a round, on the workload's inputs (inputs.hpp):
//   compile.polyast / compile.pocc  optimize one program with the preset
//   analyze                          polyast with the four analyses after
//                                    the input and after every pass
//   run / run_1t                     one warm native run of one kernel on
//                                    nproc threads / on one thread
// Every round attempts the same operations: the compile-side ones, then
// the native runs, each group in a seed-shuffled order.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "exec/native_exec.hpp"
#include "flow/presets.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace fs = std::filesystem;
namespace exec = polyast::exec;
namespace flow = polyast::flow;
namespace ir = polyast::ir;
namespace obs = polyast::obs;
namespace runtime = polyast::runtime;
namespace selfprof = polyast::obs::selfprof;
using polyast::kernels::KernelInfo;
using namespace perfbench;

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  bool seed = false, seconds = false, trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        args.trace = value == "1";
        trace = value == "0" || value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  const auto& names = workloadNames();
  bool known = std::find(names.begin(), names.end(), args.workload) !=
               names.end();
  if (argc % 2 == 0 || !known || !seed || !seconds || !trace ||
      args.workdir.empty())
    return std::nullopt;
  return args;
}

/// Everything one set-up builds.
struct Setup {
  std::vector<CompileInput> compile;
  std::unique_ptr<exec::NativeBackend> backend;
  std::vector<RunSlot> runs;
  std::vector<std::string> degraded;  ///< kernels that could not load
};

Setup setUp(const Args& args, const fs::path& jitDir, obs::Tracer& tracer) {
  Setup s;
  s.compile = buildCompileInputs(args.workload, args.seed);
  exec::NativeBackendOptions nopt;
  nopt.cacheDir = jitDir.string();
  s.backend = std::make_unique<exec::NativeBackend>(nopt);
  for (const KernelInfo* k : runKernels(args.workload)) {
    RunSlot slot;
    slot.kernel = k;
    slot.input = k->build();
    slot.optimized = compile(flow::makePipeline("polyast"), slot.input, tracer);
    std::string reason = prepareNative(*s.backend, slot.optimized, tracer);
    if (!reason.empty()) s.degraded.push_back(k->name + ": " + reason);
    slot.params = runParams(*k);
    slot.pristine = makeData(slot.optimized, k, slot.params, args.seed);
    slot.work = slot.pristine;
    s.runs.push_back(std::move(slot));
  }
  // The first compile in a process runs slower (cold allocator and
  // caches); one untimed pass keeps it out of the timed rounds.
  for (const auto& in : s.compile) {
    compile(flow::makePipeline("polyast"), in.program, tracer);
    compile(flow::makePipeline("pocc"), in.program, tracer);
  }
  return s;
}

enum class Kind { Polyast, Pocc, Analyze, Run, Run1t };
constexpr Kind kKinds[] = {Kind::Polyast, Kind::Pocc, Kind::Analyze,
                           Kind::Run, Kind::Run1t};

const char* kindName(Kind k) {
  switch (k) {
    case Kind::Polyast: return "compile.polyast";
    case Kind::Pocc: return "compile.pocc";
    case Kind::Analyze: return "analyze";
    case Kind::Run: return "run";
    case Kind::Run1t: return "run_1t";
  }
  return "?";
}

bool isRun(Kind k) { return k == Kind::Run || k == Kind::Run1t; }

struct Op {
  Kind kind;
  std::size_t index;  ///< into Setup::compile or Setup::runs
};

/// The witness parameters `polyastc --analyze` gives the analyses.
Params witnessParams(const ir::Program& program) {
  Params p;
  for (const auto& name : program.params) p[name] = name == "TSTEPS" ? 3 : 7;
  return p;
}

/// Per-layer count metrics read from the compiler's self-profiling
/// counters (empty name: not reported).
const char* countName(selfprof::Op o) {
  switch (o) {
    case selfprof::Op::FmEliminations: return "intset.fm_eliminations";
    case selfprof::Op::FmConstraintsIn: return "intset.fm_constraints_in";
    case selfprof::Op::FmCapHits: return "intset.fm_cap_hits";
    case selfprof::Op::IntsetEmptyTests: return "intset.empty_tests";
    case selfprof::Op::IntsetBoundQueries: return "intset.bound_queries";
    case selfprof::Op::IntsetProjects: return "intset.projects";
    case selfprof::Op::DepTests: return "poly.dep_tests";
    case selfprof::Op::SelCandidates: return "transform.sel_candidates";
    default: return "";
  }
}

/// Self time per span name (duration minus the time its child spans
/// cover), summed; clears the tracer.
std::map<std::string, double> takeSelfTimesMs(obs::Tracer& tracer) {
  std::vector<obs::SpanRecord> spans = tracer.spans();
  tracer.clear();
  std::map<std::uint64_t, std::uint64_t> childNs;
  for (const auto& s : spans)
    if (s.parentId) childNs[s.parentId] += s.durNs;
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    std::uint64_t c = std::min(childNs[s.id], s.durNs);
    self[s.name] += static_cast<double>(s.durNs - c) / 1e6;
  }
  return self;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Quartiles q;  ///< within-run spread; n = 0 where there is none
};

Metric sampled(const std::string& name, const std::string& unit,
               const std::vector<double>& v) {
  Quartiles q = quartiles(v);
  return {name, unit, q.median, q};
}

/// The timed rounds of one run, what they measured, and the checks of
/// their outputs.
class Bench {
 public:
  Bench(const Args& args, Setup& setup, obs::Tracer& tracer,
        std::string identityCacheDir)
      : args_(args), setup_(setup), tracer_(tracer),
        identityCacheDir_(std::move(identityCacheDir)), rng_(args.seed),
        pool_(std::max(1u, std::thread::hardware_concurrency())), pool1_(1) {
    for (std::size_t i = 0; i < setup.compile.size(); ++i)
      for (Kind k : {Kind::Polyast, Kind::Pocc, Kind::Analyze})
        if (k != Kind::Analyze || setup.compile[i].analyze)
          ops_.push_back({k, i});
    for (std::size_t i = 0; i < setup.runs.size(); ++i)
      for (int r = 0; r < runRepeats(args.workload); ++r)
        for (Kind k : {Kind::Run, Kind::Run1t}) ops_.push_back({k, i});
    for (Kind k : kKinds)
      perInput_[k].resize(isRun(k) ? setup.runs.size()
                                   : setup.compile.size());
  }

  void round();
  void check(Checker& check);
  std::vector<Metric> endToEnd(const std::vector<double>& setupS,
                               double peakRssMb);
  std::vector<Metric> perLayer(
      const std::map<std::string, std::vector<double>>& setupLayers);
  void report(std::ostream& os) const;

  int rounds() const { return rounds_; }
  unsigned threads() const { return pool_.threadCount(); }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::string opName(const Op& op) const {
    return std::string(kindName(op.kind)) + ":" +
           (isRun(op.kind) ? setup_.runs[op.index].kernel->name
                           : setup_.compile[op.index].name);
  }
  void fail(const Op& op, const std::string& why) {
    ++failed_;
    failures_.insert(opName(op) + ": " + why);
  }
  double execute(const Op& op, selfprof::Snapshot& counts,
                 std::map<std::string, double>& dispatches);

  const Args& args_;
  Setup& setup_;
  obs::Tracer& tracer_;
  const std::string identityCacheDir_;
  std::mt19937_64 rng_;
  runtime::ThreadPool pool_;
  runtime::ThreadPool pool1_;
  std::vector<Op> ops_;
  int rounds_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::set<std::string> failures_;
  std::map<Kind, std::vector<double>> roundSums_;
  std::map<Kind, std::vector<std::vector<double>>> perInput_;
  std::map<std::string, std::vector<double>> layerSamples_;
  std::map<std::string, std::vector<double>> countSamples_;
  /// First-round compile outputs and their text; later rounds must print
  /// the same, and the checks run on them.
  std::map<std::pair<Kind, std::size_t>, ir::Program> outputs_;
  std::map<std::pair<Kind, std::size_t>, std::string> printed_;
  std::set<std::string> nondeterministic_;
};

double Bench::execute(const Op& op, selfprof::Snapshot& counts,
                      std::map<std::string, double>& dispatches) {
  if (isRun(op.kind)) {
    RunSlot& slot = setup_.runs[op.index];
    const bool one = op.kind == Kind::Run1t;
    exec::ParallelRunReport rep;
    double ms = runNative(*setup_.backend, slot.optimized, slot.work,
                          slot.pristine, one ? pool1_ : pool_, rep, tracer_);
    if (rep.nativeFallbacks > 0) fail(op, "fell back to the interpreter");
    if (!one) {
      dispatches["runtime.doall_dispatches"] += rep.doallLoops;
      dispatches["runtime.reduction_dispatches"] += rep.reductionLoops;
      dispatches["runtime.pipeline_dispatches"] +=
          rep.pipelineLoops + rep.pipelineDynamicLoops + rep.pipeline3dLoops +
          rep.reductionPipelineLoops;
      dispatches["runtime.sequential_fallbacks"] += rep.sequentialFallbacks;
    }
    return ms;
  }

  const CompileInput& in = setup_.compile[op.index];
  const selfprof::Snapshot before = selfprof::snapshot();
  auto t0 = Clock::now();
  double ms = 0.0;
  if (op.kind == Kind::Analyze) {
    obs::Span span(tracer_, "analyze", "op");
    AnalyzeResult r = analyze(flow::makePipeline("polyast"), in.program,
                              witnessParams(in.program));
    span.end();
    ms = msSince(t0);
    if (r.errors > 0)
      fail(op, std::to_string(r.errors) + " error diagnostic(s), first " +
                   r.firstError);
  } else {
    const char* preset = op.kind == Kind::Polyast ? "polyast" : "pocc";
    obs::Span span(tracer_, kindName(op.kind), "op");
    ir::Program out = compile(flow::makePipeline(preset), in.program, tracer_);
    span.end();
    ms = msSince(t0);
    std::string text = ir::printProgram(out);
    auto key = std::make_pair(op.kind, op.index);
    auto it = printed_.find(key);
    if (it == printed_.end()) {
      printed_.emplace(key, std::move(text));
      outputs_.emplace(key, std::move(out));
    } else if (it->second != text) {
      nondeterministic_.insert(opName(op));
    }
  }
  const selfprof::Snapshot after = selfprof::snapshot();
  for (int c = 0; c < selfprof::kOpCount; ++c) counts[c] += after[c] - before[c];
  return ms;
}

void Bench::round() {
  // Compile-side operations first, then the native runs, each in a
  // seed-shuffled order: a compile does not start on caches a parallel
  // run just flushed.
  std::shuffle(ops_.begin(), ops_.end(), rng_);
  std::stable_partition(ops_.begin(), ops_.end(),
                        [](const Op& op) { return !isRun(op.kind); });
  std::map<Kind, double> sums;
  selfprof::Snapshot counts{};
  std::map<std::string, double> dispatches;
  for (const Op& op : ops_) {
    ++attempted_;
    try {
      double ms = execute(op, counts, dispatches);
      sums[op.kind] += ms;
      perInput_[op.kind][op.index].push_back(ms);
    } catch (const std::exception& e) {
      fail(op, e.what());
    }
  }
  if (args_.trace) {
    // Layer-by-layer replay of the analyses; not an operation, so it
    // changes no count and no end-to-end time.
    for (const auto& in : setup_.compile)
      if (in.analyze)
        replayAnalysisLayers(flow::makePipeline("polyast"), in.program,
                             witnessParams(in.program), tracer_);
    for (const auto& [name, ms] : takeSelfTimesMs(tracer_))
      layerSamples_[name].push_back(ms);
  }
  for (Kind k : kKinds) roundSums_[k].push_back(sums[k]);
  for (selfprof::Op o : selfprof::allOps())
    if (*countName(o))
      countSamples_[countName(o)].push_back(
          static_cast<double>(counts[static_cast<int>(o)]));
  for (const char* name :
       {"runtime.doall_dispatches", "runtime.reduction_dispatches",
        "runtime.pipeline_dispatches", "runtime.sequential_fallbacks"})
    countSamples_[name].push_back(dispatches[name]);
  ++rounds_;
}

void Bench::check(Checker& check) {
  for (const auto& d : setup_.degraded)
    check.fail("native backend degraded to the interpreter: " + d);
  for (const auto& op : nondeterministic_)
    check.fail(op + ": output differs between rounds");
  std::vector<CompiledOutput> outs;
  for (const auto& [key, program] : outputs_)
    outs.push_back({&setup_.compile[key.second],
                    key.first == Kind::Polyast ? "polyast" : "pocc", &program,
                    &printed_.at(key)});
  checkCompiled(outs, args_.seed, pool_, check);
  checkDependenceCounts(check);
  checkNative(setup_.runs, *setup_.backend, identityCacheDir_, args_.seed,
              pool_, pool1_, check);
}

std::vector<Metric> Bench::endToEnd(const std::vector<double>& setupS,
                                    double peakRssMb) {
  // Per input, a compile time is the median over rounds; a native run
  // time is the first decile. Runs on a shared host fall into slower
  // phases for seconds at a time (README), and the low decile reads the
  // speed of the code between them.
  auto geomeanOf = [&](Kind k, auto&& stat, auto&& keep) {
    std::vector<double> per;
    for (std::size_t i = 0; i < perInput_[k].size(); ++i)
      if (keep(i) && !perInput_[k][i].empty())
        per.push_back(stat(perInput_[k][i]));
    return geomean(per);
  };
  auto med = [](const std::vector<double>& v) { return median(v); };
  auto low = [](const std::vector<double>& v) { return lowDecile(v); };
  auto group = [&](KernelInfo::Group g) {
    return geomeanOf(Kind::Run, low, [&](std::size_t i) {
      return setup_.runs[i].kernel->group == g;
    });
  };
  auto all = [](std::size_t) { return true; };
  return {
      sampled("setup_s", "s", setupS),
      sampled("compile_ms", "ms", roundSums_[Kind::Polyast]),
      sampled("compile_pocc_ms", "ms", roundSums_[Kind::Pocc]),
      sampled("analyze_ms", "ms", roundSums_[Kind::Analyze]),
      {"compile_kernel_geomean_ms", "ms", geomeanOf(Kind::Polyast, med, all),
       {}},
      {"run_doall_ms", "ms", group(KernelInfo::Group::Doall), {}},
      {"run_reduction_ms", "ms", group(KernelInfo::Group::Reduction), {}},
      {"run_pipeline_ms", "ms", group(KernelInfo::Group::Pipeline), {}},
      {"run_1t_ms", "ms", geomeanOf(Kind::Run1t, low, all), {}},
      {"peak_rss_mb", "MiB", peakRssMb, {}},
  };
}

std::vector<Metric> Bench::perLayer(
    const std::map<std::string, std::vector<double>>& setupLayers) {
  std::vector<Metric> out;
  for (const char* name :
       {"flow.affine", "flow.skew", "flow.parallelism", "flow.tile",
        "flow.wavefront", "flow.register-tile", "poly.extract", "poly.deps",
        "analysis.legality", "analysis.races", "analysis.reductions",
        "analysis.bounds", "exec.run", "exec.run_1t"})
    out.push_back(sampled(std::string(name) + "_ms", "ms", layerSamples_[name]));
  for (const char* name : {"ir.emit", "exec.prepare"}) {
    auto it = setupLayers.find(name);
    out.push_back(sampled(std::string(name) + "_ms", "ms",
                          it == setupLayers.end() ? std::vector<double>{}
                                                  : it->second));
  }
  for (const auto& [name, v] : countSamples_)
    out.push_back({name, "count", median(v), {}});
  return out;
}

void Bench::report(std::ostream& os) const {
  os << "per-input median [q1, q3] n (and p10 for runs) over rounds, ms:\n";
  for (Kind k : kKinds)
    for (std::size_t i = 0; i < perInput_.at(k).size(); ++i) {
      Quartiles q = quartiles(perInput_.at(k)[i]);
      if (q.n == 0) continue;
      os << "  " << kindName(k) << ":"
         << (isRun(k) ? setup_.runs[i].kernel->name : setup_.compile[i].name)
         << " " << q.median << " [" << q.q1 << ", " << q.q3 << "] n=" << q.n;
      if (isRun(k)) os << " p10=" << lowDecile(perInput_.at(k)[i]);
      os << "\n";
    }
  for (const auto& [name, v] : countSamples_)
    if (*std::min_element(v.begin(), v.end()) !=
        *std::max_element(v.begin(), v.end()))
      os << "note: count " << name << " differs between rounds\n";
  os << "operations: " << attempted_ << " attempted, " << failed_
     << " failed\n";
  for (const auto& f : failures_) os << "  FAILED " << f << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed = parseArgs(argc, argv);
  if (!parsed) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 --workdir DIR\n";
    return 4;
  }
  // Everything the run writes stays under one directory per process,
  // except the identity programs' JIT cache, which later runs reuse.
  Args args = *parsed;
  const fs::path identityCache = fs::absolute(args.workdir) / "identity-jit";
  const fs::path work =
      fs::absolute(args.workdir) / ("run-" + std::to_string(getpid()));
  int rc = 0;
  try {
    fs::create_directories(work / "tmp");
    setenv("TMPDIR", (work / "tmp").c_str(), 1);  // the JIT compiler's
    obs::Tracer tracer;
    tracer.setEnabled(args.trace);

    std::vector<double> setupS;
    std::map<std::string, std::vector<double>> setupLayers;
    Setup setup;
    for (int k = 0; k < kSetups; ++k) {
      setup = Setup{};  // one set-up in memory at a time
      auto t0 = Clock::now();
      Setup s = setUp(args, work / ("jit-" + std::to_string(k)), tracer);
      setupS.push_back(msSince(t0) / 1e3);
      for (const auto& [name, ms] : takeSelfTimesMs(tracer))
        setupLayers[name].push_back(ms);
      setup = std::move(s);
    }

    Bench bench(args, setup, tracer, identityCache.string());
    auto start = Clock::now();
    do bench.round();
    while (msSince(start) < args.seconds * 1e3);
    const double timedS = msSince(start) / 1e3;
    const double peakRssMb =
        static_cast<double>(selfprof::peakRssKb()) / 1024.0;

    auto checkStart = Clock::now();
    Checker checker;
    bench.check(checker);
    const double checkS = msSince(checkStart) / 1e3;

    const std::vector<Metric> e2e = bench.endToEnd(setupS, peakRssMb);
    const std::vector<Metric> layers = bench.perLayer(setupLayers);
    std::cerr << "perfbench " << parsed->workload << " seed=" << args.seed
              << " trace=" << args.trace << ": " << kSetups << " set-ups, "
              << bench.rounds() << " rounds in " << timedS << " s on "
              << bench.threads() << " threads, checks " << checkS << " s\n";
    bench.report(std::cerr);
    std::cerr << "metrics: median [q1, q3] n\n";
    for (const auto* list : {&e2e, &layers})
      for (const Metric& m : *list) {
        std::cerr << "  " << m.name << " = " << m.value << " " << m.unit;
        if (m.q.n)
          std::cerr << " [" << m.q.q1 << ", " << m.q.q3 << "] n=" << m.q.n;
        std::cerr << "\n";
      }

    const std::vector<Metric>& out = args.trace ? layers : e2e;
    std::cout << "{\"correct\": " << (checker.ok() ? "true" : "false")
              << ", \"attempted\": " << bench.attempted()
              << ", \"failed\": " << bench.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i)
      std::cout << (i ? ", " : "") << "\"" << out[i].name
                << "\": {\"value\": " << obs::formatJsonNumber(out[i].value)
                << ", \"unit\": \"" << out[i].unit << "\"}";
    std::cout << "}}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  return rc;
}
