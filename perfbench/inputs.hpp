// Workload inputs: which programs each workload compiles and which
// kernels it runs natively, at which sizes, on which seeded data.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/interp.hpp"
#include "ir/ast.hpp"
#include "kernels/polybench.hpp"

namespace perfbench {

using Params = std::map<std::string, std::int64_t>;

/// One program a workload compiles with every pipeline preset.
struct CompileInput {
  std::string name;
  polyast::ir::Program program;
  /// The PolyBench kernel the program is, or null for a scopgen program.
  const polyast::kernels::KernelInfo* kernel = nullptr;
  /// Parameters of the interpreter-oracle check of the compiled output;
  /// empty when the program cannot run under the interpreter.
  Params checkParams;
  /// Whether the workload runs the analyze operation on it.
  bool analyze = true;
};

/// One kernel a workload runs natively: its optimized program and the
/// pristine inputs every timed run starts from.
struct RunSlot {
  const polyast::kernels::KernelInfo* kernel = nullptr;
  polyast::ir::Program input;
  polyast::ir::Program optimized;
  Params params;
  polyast::exec::Context pristine{polyast::ir::Program{}};
  polyast::exec::Context work{polyast::ir::Program{}};  ///< a run's buffers
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Builds the programs `workload` compiles. The scopgen families take
/// their generator seed from `seed`; PolyBench kernels are fixed.
std::vector<CompileInput> buildCompileInputs(const std::string& workload,
                                             std::uint64_t seed);

/// The PolyBench kernels `workload` runs natively.
std::vector<const polyast::kernels::KernelInfo*> runKernels(
    const std::string& workload);

/// Native runs of each kernel per round, per thread count: the compile
/// workloads' rounds are long, so their few probe kernels run several
/// times per round to collect as many samples as run-native does.
int runRepeats(const std::string& workload);

/// Timed problem size of a kernel on the native backend.
Params runParams(const polyast::kernels::KernelInfo& kernel);

/// Oracle-check size of a PolyBench program: every spatial extent crosses
/// two full tiles plus a remainder (2 * 32 + 5) and the time extent two
/// full time tiles plus a remainder (2 * 5 + 2).
Params tileCrossingParams(const polyast::ir::Program& program);

/// Seeded, conditioned buffers for `program` at `params`: the interpreter's
/// deterministic fill, a ±1% multiplicative jitter drawn from `seed`, then
/// the kernel's own conditioning (SPD matrices, damped coefficients).
polyast::exec::Context makeData(const polyast::ir::Program& program,
                                const polyast::kernels::KernelInfo* kernel,
                                const Params& params, std::uint64_t seed);

}  // namespace perfbench
