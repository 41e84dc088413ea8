// The benchmark's calls into each layer of the program, each wrapped in a
// span on the benchmark's own tracer. With the tracer disabled a span
// costs one relaxed atomic load, so untraced runs time the same code.
#pragma once

#include <cstddef>
#include <string>

#include "exec/native_exec.hpp"
#include "flow/pipeline.hpp"
#include "inputs.hpp"
#include "ir/ast.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace perfbench {

/// Optimizes `input` by calling every pass of `pipe` in turn, one span
/// "flow.<pass>" per pass. Returns the optimized program.
polyast::ir::Program compile(const polyast::flow::PassPipeline& pipe,
                             const polyast::ir::Program& input,
                             polyast::obs::Tracer& tracer);

struct AnalyzeResult {
  std::size_t errors = 0;
  std::string firstError;  ///< first error diagnostic, rendered
};

/// Optimizes `input` with `pipe` and the four analyses interleaved after
/// the input and after every pass, as `polyastc --analyze` does; the
/// analyses' witness search runs at `witness`.
AnalyzeResult analyze(const polyast::flow::PassPipeline& pipe,
                      const polyast::ir::Program& input,
                      const Params& witness);

/// Runs the analysis layers on every pipeline point of `input` through
/// their entry points, one span each: poly.extract, poly.deps,
/// analysis.legality, analysis.races, analysis.reductions and
/// analysis.bounds. Every layer runs at every point (the session's
/// unchanged-program shortcuts are not applied), so the spans time the
/// layers themselves. Traced runs only.
void replayAnalysisLayers(const polyast::flow::PassPipeline& pipe,
                          const polyast::ir::Program& input,
                          const Params& witness,
                          polyast::obs::Tracer& tracer);

/// JIT-compiles `program` through `backend` (span "exec.prepare"); on a
/// traced run the TU emission is timed apart first (span "ir.emit").
/// Returns the backend's degradation reason, empty when native code loaded.
std::string prepareNative(polyast::exec::NativeBackend& backend,
                          const polyast::ir::Program& program,
                          polyast::obs::Tracer& tracer);

/// One timed native run (span "exec.run" or "exec.run_1t"): `work` is
/// reset to `pristine` untimed, then `program` runs on `pool`. Returns
/// wall milliseconds; `report` receives the run report.
double runNative(polyast::exec::NativeBackend& backend,
                 const polyast::ir::Program& program,
                 polyast::exec::Context& work,
                 const polyast::exec::Context& pristine,
                 polyast::runtime::ThreadPool& pool,
                 polyast::exec::ParallelRunReport& report,
                 polyast::obs::Tracer& tracer);

}  // namespace perfbench
