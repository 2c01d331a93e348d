// C emission: renders a linked plan and its multiply-accumulate as one
// compilable C translation unit (emit_linked_c). It is the compiler's only
// C emitter: the runtime-specialization backend (compiler/specialize.hpp)
// compiles and loads its output, and CompiledKernel::emit returns the same
// text for inspection. Tests build the emitted code with the system C
// compiler and diff it against the linked engine, so the generated code is
// demonstrably real, not pseudocode.
#pragma once

#include <string>
#include <vector>

#include "compiler/link.hpp"

namespace bernoulli::compiler {

/// Whether emit_linked_c covers a linked plan's shape, and why (not) —
/// the EXPLAIN `specialize:` footer and emission's own refusal, one
/// verdict. Covered iff the plan has levels, every level enumerates (no
/// merge joins) a flat (non-opaque) driver, and every probe lowers to a
/// flat SearchSpec with no sparse fill-in. The value arrays are a property
/// of the statement, not the plan, so emit_linked_c checks them itself.
struct SpecializeLegality {
  bool ok = false;
  std::string note;
};
SpecializeLegality plan_specialize_legality(const LinkedPlan& lp);

/// A (LinkedPlan, LinkedMac) pair rendered as one compilable C translation
/// unit — the input to the runtime-specialization backend
/// (compiler/specialize.hpp). The arrays are not baked in: the generated
/// function takes them as runtime pointer arguments (int_args/const_args/
/// out_args give the argument order), so one emitted kernel reruns against
/// live data with no re-emission.
///
/// The exported symbol has C signature
///
///   int SYMBOL(const int** ia, const double** da, double** wa,
///              long long* ctr, long long* lvl_enum, long long* lvl_prod,
///              long long* fanout, long long* lvl_ns, int prof);
///
/// and returns 0 on success or 1 when a non-filtering probe misses (the
/// condition the engines treat as a checked runtime error). ctr receives
/// {tuples, probe_hits, probe_misses}; lvl_enum/lvl_prod receive per-level
/// enumerated/produced totals; fanout receives num_levels * 40 log2
/// buckets, one histogram sample per level invocation — exactly the
/// observability the linked engine books, so the host can flush identical
/// executor.* deltas.
///
/// lvl_ns is the per-level time-attribution block (docs/CODEGEN.md): 3
/// slots per level {raw_ns, samples, work}, written only when `prof` is
/// nonzero. Level 0 books one exact whole-kernel bracket; deeper levels
/// book whole invocations sampled every kProfileSampleEvery-th outer
/// binding. The host (compiler/specialize.cpp) compensates, extrapolates
/// and commits the same `bernoulli.profile.v1` shape the other engines
/// flush, using `level_kinds` for the drain-kind attribution.
struct LinkedEmission {
  bool ok = false;
  std::string note;    // why emission was refused (ok == false)
  std::string source;  // the full C translation unit
  std::string symbol;
  std::vector<const index_t*> int_args;   // ia[] in argument order
  std::vector<const value_t*> const_args;  // da[]
  std::vector<value_t*> out_args;          // wa[]
  std::size_t num_levels = 0;
  std::vector<int> level_kinds;  // support::kProf* drain kind per level
  LeafForm leaf_form = LeafForm::kPerElement;
  std::string leaf_note;  // the form and why it was chosen
};

/// Emits C for the pair, or refuses with a note when the plan uses a shape
/// specialization does not cover (plan_specialize_legality) or an operand
/// has no flat value array. Emits exactly the leaf form leaf_form() gives
/// the pair — the form the linked engine runs — from the ranges and
/// proofs link_plan stored. The emission borrows the plan's arrays; it
/// is valid only while the views behind `lp` stay alive and unmoved.
LinkedEmission emit_linked_c(const LinkedPlan& lp, const LinkedMac& mac,
                             const std::string& symbol);

}  // namespace bernoulli::compiler
