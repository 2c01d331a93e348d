// Distributed matrix-vector product: the inspector/executor pairs compared
// in the paper's Tables 2 and 3.
//
// Five variants (paper §4):
//   kBlockSolve      — the hand-written baseline: direct (non-relational)
//                      inspector over the local/non-local split, executor
//                      with communication/computation overlap.
//   kBernoulliMixed  — compiler-generated from the mixed local/global
//                      specification (Eq. 24): relational inspector over
//                      only the non-local part; no overlap.
//   kBernoulli       — compiler-generated from the fully data-parallel
//                      specification (Eq. 23): the inspector translates
//                      EVERY reference to x (work ~ problem size) and the
//                      executor keeps a global->local indirection on every
//                      access, local or not.
//   kIndirectMixed   — the mixed structure, but ownership is resolved
//                      through the Chaos distributed translation table
//                      (build + query are all-to-alls, volume ~ N).
//   kIndirect        — fully data-parallel + Chaos table: worst of both.
//
// All variants compute the same y; they differ exactly where the paper
// says they differ: inspector volume and executor indirection.
#pragma once

#include "distrib/distribution.hpp"
#include "formats/csr.hpp"
#include "spmd/comm.hpp"

namespace bernoulli::spmd {

enum class Variant {
  kBlockSolve,
  kBernoulliMixed,
  kBernoulli,
  kIndirectMixed,
  kIndirect,
};

std::string variant_name(Variant v);

/// Whether the variant resolves ownership through the Chaos distributed
/// translation table (vs. the replicated distribution relation).
bool variant_uses_chaos(Variant v);

/// Whether the variant compiles from the fully data-parallel spec (naive:
/// global translation on every reference).
bool variant_is_naive(Variant v);

/// Executor-ready distributed SpMV state on one rank.
///
/// Both executor families split the matrix into the part referencing
/// owned x and the part referencing ghosts (the compiler generates the
/// same three-product structure either way, per Eq. 23/24). The mixed
/// family pre-localizes column indices into x_full slots; the naive
/// family keeps GLOBAL column indices and resolves every reference
/// through the xtrans indirection at execution time — the paper's
/// "redundant global-to-local translation ... even for the local
/// references to x".
struct DistSpmv {
  Variant variant = Variant::kBernoulliMixed;
  CommSchedule sched;

  formats::Csr a_local;     // entries whose column is owned here
  formats::Csr a_nonlocal;  // entries whose column is non-local

  // Naive executors only: global column -> x_full slot (size = N).
  std::vector<index_t> xtrans;

  /// Calibrated compute charges (seconds) for manual-compute runs; when
  /// local >= 0, apply() charges these to the virtual clock at the points
  /// where the corresponding computation happens.
  struct ComputeCharge {
    double local = -1.0;
    double nonlocal = -1.0;
  };
  ComputeCharge charge;

  /// Virtual seconds the inspector window of build_dist_spmv() consumed on
  /// this rank (communication-set + index-translation construction; matrix
  /// assembly excluded — see the comments in build_dist_spmv).
  double inspector_vtime = 0.0;

  index_t local_rows() const { return sched.owned; }

  /// y = A_local x (pure compute; ghosts not needed).
  void compute_local(ConstVectorView x_full, VectorView y) const;

  /// y += A_nonlocal x (pure compute; ghost region must be filled).
  void compute_nonlocal(ConstVectorView x_full, VectorView y) const;

  /// y = A x. x_full must be laid out per CommSchedule (owned values
  /// filled; ghost region scratch); y has local_rows() entries. Performs
  /// the exchange internally, overlapping when the variant calls for it.
  void apply(runtime::Process& p, VectorView x_full, VectorView y,
             int tag) const;
};

/// Runs the inspector for `variant` and assembles the executor state.
/// Collective over all ranks. `a` is the global matrix in CSR form
/// (replicated for fragment extraction — see DESIGN.md; all modeled
/// communication is for ownership resolution and x values). `rows`
/// distributes rows of A, x and y identically (the aligned case of
/// Eq. 20); the matrix must be square.
///
/// Each rank reads only its own rows of `a` and writes every array once,
/// exactly sized. Mixed variants cut a_local (pre-localized) and A_SNL
/// (global columns) before the timed window (inspector_vtime), whose last
/// step renumbers A_SNL to ghost slots in place: it becomes a_nonlocal.
/// Naive variants build xtrans (O(N)) and cut both parts, global columns,
/// inside the window. Only the schedule, the parts and xtrans are kept.
DistSpmv build_dist_spmv(runtime::Process& p, const formats::Csr& a,
                         const distrib::Distribution& rows, Variant variant);

/// Collective; compile_dist_matvec's inspector. The Bernoulli-Mixed
/// schedule, and per local row the owned entries (local offsets) then the
/// ghost entries (x_full slots): bitwise build_dist_spmv(kBernoulliMixed)'s
/// parts concatenated. Only A_SNL is allocated on the way (and freed); the
/// fragment is cut from the global rows in one exactly sized pass.
struct FusedFragment {
  CommSchedule sched;
  formats::Csr a;
};
FusedFragment build_fused_fragment(runtime::Process& p, const formats::Csr& a,
                                   const distrib::Distribution& rows);

}  // namespace bernoulli::spmd
