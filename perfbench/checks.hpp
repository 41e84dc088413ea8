// Output checks, run after the timed section. Each compares the program
// under test with a computation made apart from it: the sequential
// interpreter on the unoptimized input, a native run of the unoptimized
// (identity-preset) program, or the static analyses' verdict.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/native_exec.hpp"
#include "inputs.hpp"
#include "runtime/parallel.hpp"

namespace perfbench {

/// Collects check failures (thread-safe); each is printed to stderr.
class Checker {
 public:
  void fail(const std::string& what);
  bool ok() const;

 private:
  mutable std::mutex mutex_;
  bool ok_ = true;
};

/// One optimized program from the timed rounds.
struct CompiledOutput {
  const CompileInput* input = nullptr;
  std::string preset;
  const polyast::ir::Program* program = nullptr;
  const std::string* printed = nullptr;  ///< its printProgram text
};

/// Each output, interpreted sequentially at its input's checkParams, must
/// equal the interpreted input exactly: sequential interpretation
/// reassociates nothing, so Backend::toleranceFor is 0. The interpreter
/// runs spread over `pool`'s threads. An input without checkParams is
/// compiled again with the legality, races and reductions analyses
/// interleaved; they must report no error, and the output must print as
/// the timed one did.
void checkCompiled(const std::vector<CompiledOutput>& outputs,
                   std::uint64_t seed, polyast::runtime::ThreadPool& pool,
                   Checker& check);

/// For each slot: an nproc and a 1-thread run of the optimized program at
/// the timed size, made with the timed runs' code, must equal a 1-thread
/// native run of the identity-preset program; at the tile-crossing size
/// the optimized (nproc) and the identity program must equal the
/// interpreter. Identity programs are JIT-compiled into
/// `identityCacheDir`, which may be shared between runs: nothing there is
/// timed, and its entries are keyed by content.
void checkNative(std::vector<RunSlot>& slots,
                 polyast::exec::NativeBackend& backend,
                 const std::string& identityCacheDir, std::uint64_t seed,
                 polyast::runtime::ThreadPool& pool,
                 polyast::runtime::ThreadPool& pool1, Checker& check);

/// Every dependence test of the process was proven or disproven.
void checkDependenceCounts(Checker& check);

}  // namespace perfbench
