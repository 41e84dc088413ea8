#include "layers.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <set>

#include "analysis/analysis.hpp"
#include "flow/analyze.hpp"
#include "ir/cemit.hpp"
#include "poly/dependence.hpp"
#include "poly/scop.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace analysis = polyast::analysis;
namespace flow = polyast::flow;
namespace ir = polyast::ir;
namespace obs = polyast::obs;
namespace poly = polyast::poly;

namespace {

analysis::AnalysisOptions analysisOptions(const Params& witness) {
  analysis::AnalysisOptions opt;
  opt.witnessParams = witness;
  return opt;
}

}  // namespace

ir::Program compile(const flow::PassPipeline& pipe, const ir::Program& input,
                    obs::Tracer& tracer) {
  flow::PassContext ctx;
  ir::Program out = input.deepCopy();
  for (const auto& pass : pipe.passes()) {
    obs::Span span(tracer, [&] { return "flow." + pass->name(); }, "flow");
    pass->run(out, ctx);
  }
  return out;
}

AnalyzeResult analyze(const flow::PassPipeline& pipe, const ir::Program& input,
                      const Params& witness) {
  auto session =
      std::make_shared<analysis::AnalysisSession>(analysisOptions(witness));
  flow::PassPipeline checked = flow::withAnalysis(pipe, session);
  flow::PassContext ctx;
  ir::Program out = input.deepCopy();
  for (const auto& pass : checked.passes()) pass->run(out, ctx);
  AnalyzeResult r;
  const analysis::DiagnosticEngine& engine = session->engine();
  r.errors = engine.errors();
  for (const auto& d : engine.diagnostics()) {
    if (d.severity == analysis::Severity::Error) {
      r.firstError = d.str() + " (after " + d.afterPass + ")";
      break;
    }
  }
  return r;
}

void replayAnalysisLayers(const flow::PassPipeline& pipe,
                          const ir::Program& input, const Params& witness,
                          obs::Tracer& tracer) {
  const analysis::AnalysisOptions opt = analysisOptions(witness);
  obs::Registry metrics;  // keeps replay diagnostics out of the global one
  analysis::DiagnosticEngine engine(&metrics);
  poly::ScopOptions sopt;
  sopt.paramMin = opt.paramMin;

  // Identity provenance maps, as the session stamps them on its baseline;
  // the passes keep them current, and legality reads them.
  ir::Program program = input.deepCopy();
  program.forEachStmt([](const std::shared_ptr<ir::Stmt>& stmt,
                         const std::vector<std::shared_ptr<ir::Loop>>& loops) {
    stmt->origin.clear();
    for (const auto& l : loops)
      stmt->origin.push_back(ir::AffExpr::term(l->iter));
  });
  const ir::Program baseline = program.deepCopy();
  std::optional<poly::Scop> baseScop;
  std::optional<poly::PoDG> baseDeps;
  {
    obs::Span span(tracer, "poly.extract", "poly");
    baseScop = poly::extractScop(baseline, sopt);
  }
  {
    obs::Span span(tracer, "poly.deps", "poly");
    baseDeps = poly::computeDependences(*baseScop);
  }
  // Legality needs an exact baseline (the session's usability rule).
  bool baselineUsable = true;
  std::set<int> ids;
  for (const auto& ps : baseScop->stmts)
    if (!ids.insert(ps.stmt->id).second || ps.numExists > 0 ||
        !ps.exactStrides)
      baselineUsable = false;

  auto atPoint = [&](const std::string& afterPass) {
    std::optional<poly::Scop> scop;
    std::optional<poly::PoDG> deps;
    try {
      {
        obs::Span span(tracer, "poly.extract", "poly");
        scop = poly::extractScop(program, sopt);
      }
      obs::Span span(tracer, "poly.deps", "poly");
      deps = poly::computeDependences(*scop);
    } catch (const polyast::Error&) {
      if (!scop) return;  // left the affine class; nothing to analyze
    }
    analysis::AnalysisInput in;
    in.program = &program;
    in.scop = &*scop;
    in.podg = deps ? &*deps : nullptr;
    in.baselineScop = &*baseScop;
    in.baselinePodg = &*baseDeps;
    in.afterPass = afterPass;
    in.options = &opt;
    if (baselineUsable) {
      obs::Span span(tracer, "analysis.legality", "analysis");
      analysis::runLegality(in, engine);
    }
    {
      obs::Span span(tracer, "analysis.races", "analysis");
      analysis::runRaces(in, engine);
    }
    {
      obs::Span span(tracer, "analysis.reductions", "analysis");
      analysis::runReductions(in, engine);
    }
    obs::Span span(tracer, "analysis.bounds", "analysis");
    analysis::runBounds(in, engine);
  };

  atPoint("<input>");
  flow::PassContext ctx;
  for (const auto& pass : pipe.passes()) {
    pass->run(program, ctx);
    atPoint(pass->name());
  }
}

std::string prepareNative(polyast::exec::NativeBackend& backend,
                          const ir::Program& program, obs::Tracer& tracer) {
  if (tracer.enabled()) {
    obs::Span span(tracer, "ir.emit", "ir");
    std::string tu = ir::emitNativeKernelTU(program);
    span.attr("bytes", static_cast<std::int64_t>(tu.size()));
  }
  obs::Span span(tracer, "exec.prepare", "exec");
  backend.prepare(program);
  return backend.degradedReason();
}

double runNative(polyast::exec::NativeBackend& backend,
                 const ir::Program& program, polyast::exec::Context& work,
                 const polyast::exec::Context& pristine,
                 polyast::runtime::ThreadPool& pool,
                 polyast::exec::ParallelRunReport& report,
                 obs::Tracer& tracer) {
  work = pristine;
  obs::Span span(tracer, pool.threadCount() == 1 ? "exec.run_1t" : "exec.run",
                 "exec");
  auto t0 = std::chrono::steady_clock::now();
  report = backend.run(program, work, pool);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
