#include "checks.hpp"

#include <atomic>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <memory>

#include "analysis/analysis.hpp"
#include "exec/backend.hpp"
#include "flow/analyze.hpp"
#include "flow/presets.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"

namespace perfbench {

namespace analysis = polyast::analysis;
namespace exec = polyast::exec;
namespace flow = polyast::flow;
namespace ir = polyast::ir;
namespace obs = polyast::obs;
namespace selfprof = polyast::obs::selfprof;
using polyast::runtime::ThreadPool;

namespace {

/// Runs every task once, spread over the pool's threads.
void runTasks(ThreadPool& pool, const std::vector<std::function<void()>>& tasks,
              Checker& check) {
  std::atomic<std::size_t> next{0};
  pool.runOnAll([&](unsigned) {
    for (std::size_t i; (i = next.fetch_add(1)) < tasks.size();) {
      try {
        tasks[i]();
      } catch (const std::exception& e) {
        check.fail(std::string("check raised: ") + e.what());
      }
    }
  });
}

/// Backend::toleranceFor scaled by the reference's magnitude: exact when
/// the run reassociated nothing, else 1e-9 relative. The absolute 1e-9 is
/// sized for test-scale values; a privatized sum at the timed sizes (atax
/// at 1200, values near 900) legitimately differs by more.
double toleranceFor(const exec::ParallelRunReport& report,
                    const ir::Program& program, const exec::Context& ref) {
  double magnitude = 1.0;
  for (const auto& decl : program.arrays)
    for (double v : ref.buffer(decl.name))
      magnitude = std::max(magnitude, std::abs(v));
  return exec::Backend::toleranceFor(report) * magnitude;
}

void compare(const exec::Context& got, const exec::Context& ref,
             const exec::ParallelRunReport& report, const ir::Program& program,
             const std::string& what, Checker& check) {
  double diff = got.maxAbsDiff(ref);
  double tol = toleranceFor(report, program, ref);
  if (!(diff <= tol))
    check.fail(what + " differs by " + obs::formatJsonNumber(diff) +
               " (tolerance " + obs::formatJsonNumber(tol) + ")");
}

/// For programs the interpreter cannot run: the legality, races and
/// reductions analyses must find no error along `preset`'s pipeline, whose
/// output must print as the timed one did.
void checkByAnalyses(const CompiledOutput& o, Checker& check) {
  analysis::AnalysisOptions opt;
  opt.bounds = false;
  auto session = std::make_shared<analysis::AnalysisSession>(opt);
  flow::PassPipeline pipe =
      flow::withAnalysis(flow::makePipeline(o.preset), session);
  flow::PassContext ctx;
  ir::Program out = o.input->program.deepCopy();
  for (const auto& pass : pipe.passes()) pass->run(out, ctx);
  const std::string label = o.preset + ":" + o.input->name;
  if (ir::printProgram(out) != *o.printed)
    check.fail(label + ": output under the analyses differs");
  if (session->engine().errors() > 0)
    check.fail(label + ": analyses report errors:\n" +
               session->engine().summary());
}

}  // namespace

void Checker::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ok_ = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

bool Checker::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ok_;
}

void checkCompiled(const std::vector<CompiledOutput>& outputs,
                   std::uint64_t seed, ThreadPool& pool, Checker& check) {
  // One interpreted reference per input, one interpreted run per output.
  std::map<const CompileInput*, std::unique_ptr<exec::Context>> refs;
  std::vector<std::unique_ptr<exec::Context>> got(outputs.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const CompiledOutput& o = outputs[i];
    const CompileInput& in = *o.input;
    if (in.checkParams.empty()) {
      checkByAnalyses(o, check);  // the compiler runs on one thread only
      continue;
    }
    if (!refs.count(&in)) {
      auto& ref = refs[&in];
      tasks.push_back([&in, &ref, seed] {
        auto ctx = std::make_unique<exec::Context>(
            makeData(in.program, in.kernel, in.checkParams, seed));
        exec::run(in.program, *ctx);
        ref = std::move(ctx);
      });
    }
    tasks.push_back([&o, &in, &slot = got[i], seed] {
      auto ctx = std::make_unique<exec::Context>(
          makeData(*o.program, in.kernel, in.checkParams, seed));
      exec::run(*o.program, *ctx);
      slot = std::move(ctx);
    });
  }
  runTasks(pool, tasks, check);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const CompiledOutput& o = outputs[i];
    const auto& ref = refs[o.input];
    if (!got[i] || !ref) continue;  // analysed, or the run raised
    compare(*got[i], *ref, exec::ParallelRunReport{}, o.input->program,
            o.preset + ":" + o.input->name +
                " vs the interpreter on the input (tile-crossing size)",
            check);
  }
}

void checkNative(std::vector<RunSlot>& slots, exec::NativeBackend& backend,
                 const std::string& identityCacheDir, std::uint64_t seed,
                 ThreadPool& pool, ThreadPool& pool1, Checker& check) {
  // Interpreted references at the tile-crossing size, in parallel.
  std::vector<std::unique_ptr<exec::Context>> refs(slots.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < slots.size(); ++i)
    tasks.push_back([&s = slots[i], &ref = refs[i], seed] {
      auto ctx = std::make_unique<exec::Context>(makeData(
          s.input, s.kernel, tileCrossingParams(s.input), seed));
      exec::run(s.input, *ctx);
      ref = std::move(ctx);
    });
  runTasks(pool, tasks, check);

  exec::NativeBackendOptions nopt;
  nopt.cacheDir = identityCacheDir;
  exec::NativeBackend identity(nopt);
  obs::Tracer off;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    RunSlot& s = slots[i];
    const std::string& name = s.kernel->name;
    ir::Program id = compile(flow::makePipeline("identity"), s.input, off);
    std::string reason = prepareNative(identity, id, off);
    if (!reason.empty()) check.fail(name + ": identity program: " + reason);

    exec::Context idOut = s.pristine;
    exec::ParallelRunReport idRep, rep, rep1t;
    runNative(identity, id, idOut, s.pristine, pool1, idRep, off);
    runNative(backend, s.optimized, s.work, s.pristine, pool, rep, off);
    compare(s.work, idOut, rep, s.input,
            name + ": nproc run vs identity 1-thread run (timed size)", check);
    runNative(backend, s.optimized, s.work, s.pristine, pool1, rep1t, off);
    compare(s.work, idOut, rep1t, s.input,
            name + ": 1-thread run vs identity 1-thread run (timed size)",
            check);

    if (!refs[i]) continue;
    const Params vp = tileCrossingParams(s.input);
    exec::Context opt = makeData(s.optimized, s.kernel, vp, seed);
    exec::ParallelRunReport optRep = backend.run(s.optimized, opt, pool);
    compare(opt, *refs[i], optRep, s.input,
            name + ": nproc run vs the interpreter (tile-crossing size)",
            check);
    exec::Context idv = makeData(id, s.kernel, vp, seed);
    exec::ParallelRunReport idvRep = identity.run(id, idv, pool1);
    compare(idv, *refs[i], idvRep, s.input,
            name + ": identity run vs the interpreter (tile-crossing size)",
            check);
    if (idRep.nativeFallbacks + rep.nativeFallbacks + rep1t.nativeFallbacks +
        optRep.nativeFallbacks + idvRep.nativeFallbacks)
      check.fail(name + ": a check run fell back to the interpreter");
  }
}

void checkDependenceCounts(Checker& check) {
  if (selfprof::value(selfprof::Op::DepProven) +
          selfprof::value(selfprof::Op::DepDisproven) !=
      selfprof::value(selfprof::Op::DepTests))
    check.fail("dep.proven + dep.disproven != dep.tests");
}

}  // namespace perfbench
