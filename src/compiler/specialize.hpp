// Runtime specialization: the top rung of the engine ladder below hand
// kernels (docs/CODEGEN.md). A (LinkedPlan, LinkedMac) pair is rendered
// to C (emit_linked_c), compiled with the system C compiler into a shared
// object, and dlopen'd as a drop-in backend — the SpComp/Bernoulli move
// of generating the specialized executor instead of interpreting the
// plan, applied at runtime.
//
// Observability contract (docs/OBSERVABILITY.md): a SpecializedKernel run
// books bitwise-identical executor.* counter deltas, fan-out histogram
// samples and per-level RunStats to a serial LinkedRunner::run(mac) of
// the same pair, and produces bitwise-identical output values. The
// generated code returns raw totals; the host flushes them into the same
// registry objects the linked engine feeds.
//
// Everything degrades gracefully: when the plan has a shape emission does
// not cover, the toolchain is missing, or the platform cannot dlopen,
// ok() is false and note() says why — callers fall back to the linked
// engine (the specialized rung of bench_table2_executor --engine does
// exactly this and reports the fallback in its output).
#pragma once

#include <string>
#include <vector>

#include "compiler/emit_standalone.hpp"
#include "compiler/link.hpp"
#include "support/dynlib.hpp"

namespace bernoulli::compiler {

/// One specialized kernel: emits, compiles and loads at construction;
/// run() executes the loaded code and commits linked-engine-identical
/// observability. Borrows the plan and mac (and, through them, the views
/// and their arrays) — all must outlive the kernel. The temporary build
/// directory is removed on destruction.
class SpecializedKernel {
 public:
  SpecializedKernel(const LinkedPlan& lp, const LinkedMac& mac);
  ~SpecializedKernel();

  SpecializedKernel(const SpecializedKernel&) = delete;
  SpecializedKernel& operator=(const SpecializedKernel&) = delete;

  /// False when emission was refused, the toolchain/dlopen is unavailable,
  /// or the compile failed; note() carries the reason for EXPLAIN-style
  /// reporting and run() must not be called. When loaded, note() names
  /// the emitted leaf form and why it was chosen (e.g. "per-element leaf:
  /// target Y overlaps factor X").
  bool ok() const { return fn_ != nullptr; }
  const std::string& note() const { return note_; }

  /// The generated C translation unit (empty when emission was refused).
  const std::string& source() const { return emission_.source; }

  /// One run: bitwise-identical outputs, counters, histograms and stats
  /// to LinkedRunner::run(mac) on the same pair.
  void run(RunStats* stats = nullptr);

 private:
  using KernelFn = int (*)(const index_t* const*, const value_t* const*,
                           value_t* const*, long long*, long long*,
                           long long*, long long*, long long*, int);

  const LinkedPlan& lp_;
  LinkedEmission emission_;
  std::string note_;
  std::string dir_;  // temp build dir; removed in the destructor
  support::DynLib lib_;
  KernelFn fn_ = nullptr;
  // Per-run counter scratch, zeroed before each call. The kernel writes
  // its fan-out buckets straight into the run record's.
  std::vector<long long> ctr_;
  std::vector<long long> lvl_enum_;
  std::vector<long long> lvl_prod_;
  std::vector<long long> lvl_ns_;  // 3 slots/level: raw_ns, samples, work
  support::RunRecord rec_;
};

}  // namespace bernoulli::compiler
