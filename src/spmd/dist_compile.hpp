// Distributed compilation (paper §3.2): from the DENSE data-parallel
// program
//
//   DO i / DO j:  Y(i) += A(i,j) * X(j)
//
// plus distribution relations, generate the SPMD inspector/executor pair:
//   1. exploit collocation — A and Y are distributed by the same rows, so
//      their join on i translates directly to a join of local fragments
//      (Eq. 20);
//   2. compute the communication sets for the non-collocated X with the
//      Used/RecvInd queries (Eq. 21-22) and build the CommSchedule;
//   3. compile the LOCAL query over the localized fragment through the
//      ordinary sequential pipeline (extract -> plan -> run/emit).
//
// This module is the API-level composition of src/compiler and src/spmd:
// the same planner that chooses sequential join orders plans the local
// query; the distributed part only adds fragmentation and communication.
#pragma once

#include <memory>

#include "compiler/loopnest.hpp"
#include "distrib/distribution.hpp"
#include "spmd/matvec.hpp"

namespace bernoulli::spmd {

/// Per-rank compiled distributed matvec kernel: owns the localized
/// fragment, the x buffer (owned + ghost layout), the local y slice, the
/// communication schedule, and the compiled local query.
class DistKernel {
 public:
  /// The owned part of x — fill before each run().
  VectorView x_owned();

  /// This rank's slice of the result.
  ConstVectorView y_local() const;

  /// y = A x: zeroes y, exchanges ghosts, runs the compiled local plan.
  void run(runtime::Process& p, int tag) const;

  const CommSchedule& schedule() const { return sched_; }
  index_t local_rows() const { return sched_.owned; }

  /// The localized fragment the compiled query iterates: per local row,
  /// the A_D + A_SL entries (owned columns) followed by the A_SNL entries
  /// (ghost slots); column indices address x_full.
  const formats::Csr& fragment() const { return *local_; }

  /// The generated C for the LOCAL program (what each node executes
  /// between exchanges).
  std::string emit(const std::string& function_name = "local_kernel") const;
  std::string describe_plan() const;

  /// EXPLAIN of the compiled LOCAL plan (see compiler/explain.hpp).
  std::string explain() const;
  std::string explain_json(int indent = 0) const;

 private:
  friend DistKernel compile_dist_matvec(runtime::Process&,
                                        const formats::Csr&,
                                        const distrib::Distribution&);
  CommSchedule sched_;
  // Heap-anchored so views bound at compile time survive moves of the
  // kernel object.
  std::shared_ptr<formats::Csr> local_;   // columns are x_full slots
  std::shared_ptr<Vector> x_full_;
  std::shared_ptr<Vector> y_;
  std::shared_ptr<compiler::Bindings> bindings_;
  std::shared_ptr<compiler::CompiledKernel> kernel_;
};

/// Collective. Compiles Y(i) += A(i,j) * X(j) for row-aligned A, X, Y
/// under `rows`. The global matrix `a` is read only during this call.
/// After it, the kernel keeps exactly: the fused localized fragment
/// (fragment(), from build_fused_fragment: only A_SNL is allocated on the
/// way), the communication schedule, the x_full (owned + ghost) and local
/// y buffers, and the bindings and compiled plan over them.
DistKernel compile_dist_matvec(runtime::Process& p, const formats::Csr& a,
                               const distrib::Distribution& rows);

}  // namespace bernoulli::spmd
