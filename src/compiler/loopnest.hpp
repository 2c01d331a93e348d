// The compiler front end (paper §2): the user writes the DENSE loop nest —
//
//   DO i = 1, N
//     DO j = 1, N
//       Y(i) = Y(i) + A(i,j) * X(j)
//
// declares which arrays are sparse and how each is stored, and the
// compiler produces the sparse program: it extracts the relational query,
// computes the sparsity predicate (Bik & Wijshoff's rule: sparse arrays in
// multiplicative positions filter the iteration), plans the joins, and
// yields a runnable/emittable kernel.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "compiler/executor.hpp"
#include "compiler/link.hpp"
#include "compiler/planner.hpp"
#include "formats/bsr.hpp"
#include "formats/ccs.hpp"
#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/ell.hpp"
#include "formats/sell.hpp"
#include "formats/sparse_vector.hpp"

namespace bernoulli::compiler {

/// An array reference in the loop body, e.g. A(i, j). For matrices the
/// convention is (row var, column var) regardless of storage; the binding
/// knows how storage hierarchy maps onto these positions.
struct ArrayRef {
  std::string array;
  std::vector<std::string> vars;
};

/// The single-statement DOANY body: target += scale * PRODUCT(factors).
/// This sum-of-products form covers the paper's kernels (matrix-vector and
/// matrix-matrix products, scalings, accumulations).
struct Statement {
  ArrayRef target;
  std::vector<ArrayRef> factors;
  value_t scale = 1.0;
};

struct Loop {
  std::string var;
  index_t extent = 0;  // iteration range [0, extent)
};

struct LoopNest {
  std::vector<Loop> loops;
  Statement body;
};

/// Maps array names to relation views plus the metadata the extractor
/// needs: whether the array is sparse (participates in the sparsity
/// predicate) and how hierarchy levels map to reference positions.
/// The Bindings object OWNS the views it creates and must outlive any
/// kernel compiled against it. Every built-in view BORROWS the bound
/// matrix: it reads the matrix's own index and value arrays in place and
/// copies none of them (BCSR and SELL included). So each matrix or vector
/// bound here must outlive the kernels compiled against it and keep its
/// arrays unmoved (not reallocated, not destroyed).
class Bindings {
 public:
  Bindings() = default;
  Bindings(Bindings&&) = default;
  Bindings& operator=(Bindings&&) = default;

  void bind_csr(const std::string& name, const formats::Csr& m);
  void bind_ccs(const std::string& name, const formats::Ccs& m);
  void bind_coo(const std::string& name, const formats::Coo& m);
  void bind_ell(const std::string& name, const formats::Ell& m);
  void bind_bsr(const std::string& name, const formats::Bsr& m);
  void bind_sell(const std::string& name, const formats::Sell& m);
  void bind_dense_matrix(const std::string& name, formats::Dense& m);
  void bind_dense_vector(const std::string& name, VectorView v);
  void bind_dense_vector(const std::string& name, ConstVectorView v);
  void bind_sparse_vector(const std::string& name,
                          const formats::SparseVector& v);

  /// Escape hatch for user-defined formats: `level_to_ref[d]` gives the
  /// reference position bound by hierarchy level d. The view is not owned.
  void bind_view(const std::string& name, relation::RelationView* view,
                 std::vector<index_t> level_to_ref, bool sparse);

  struct Entry {
    relation::RelationView* view = nullptr;
    std::vector<index_t> level_to_ref;
    bool sparse = false;
  };
  const Entry& lookup(const std::string& name) const;

 private:
  std::map<std::string, Entry> entries_;
  std::vector<std::unique_ptr<relation::RelationView>> owned_;
};

/// A compiled kernel: query + plan + statement, ready to run or to render
/// as C. References views owned by the Bindings it was compiled
/// from.
class CompiledKernel {
 public:
  CompiledKernel() = default;
  // The lazily-built linked program borrows this object's plan_/query_, so
  // copies and moves must not share or carry the source's cache. Dropping
  // it silently would make the first run() after a copy/move pay a hidden
  // re-link (and, worse, mutate a const kernel from what looks like a
  // steady-state call), so when the source was already linked the cache is
  // re-established eagerly against this object's own plan_/query_.
  //
  // Concurrency (PR 10): run() may be in flight on another thread while a
  // copy is taken, so the source's linked_ cache is only ever read under
  // its cache mutex — the copy looks at null-ness alone and re-links
  // against its OWN plan_/query_, never the source's in-flux runner state.
  // Moves and assignments REPLACE storage a concurrent run borrows, which
  // no lock can make safe; they enforce a cheap ownership check instead
  // (active_runs() == 0, std::terminate via the noexcept boundary on
  // violation — a dangling runner would be memory corruption, not an
  // error state).
  CompiledKernel(const CompiledKernel& o)
      : query_(o.query_), plan_(o.plan_), stmt_(o.stmt_),
        interval_(o.interval_) {
    if (o.linked_snapshot() != nullptr) relink();
  }
  CompiledKernel(CompiledKernel&& o) noexcept
      : query_(std::move(o.query_)), plan_(std::move(o.plan_)),
        stmt_(std::move(o.stmt_)), interval_(std::move(o.interval_)) {
    o.check_idle("moved from");
    const bool had = o.linked_snapshot() != nullptr;
    o.reset_linked();
    if (had) relink_noexcept();
  }
  CompiledKernel& operator=(const CompiledKernel& o) {
    if (this != &o) {
      check_idle("reassigned");
      query_ = o.query_;
      plan_ = o.plan_;
      stmt_ = o.stmt_;
      interval_ = o.interval_;
      reset_linked();
      if (o.linked_snapshot() != nullptr) relink();
    }
    return *this;
  }
  CompiledKernel& operator=(CompiledKernel&& o) noexcept {
    if (this != &o) {
      check_idle("reassigned");
      o.check_idle("moved from");
      query_ = std::move(o.query_);
      plan_ = std::move(o.plan_);
      stmt_ = std::move(o.stmt_);
      interval_ = std::move(o.interval_);
      const bool had = o.linked_snapshot() != nullptr;
      reset_linked();
      o.reset_linked();
      if (had) relink_noexcept();
    }
    return *this;
  }

  /// Executes the kernel through the linked cursor engine. The plan is
  /// linked on the first run and the linked program (runner scratch, the
  /// lowered multiply-accumulate) is cached, so solver loops that call
  /// run() per iteration pay name resolution and allocation once.
  ///
  /// Thread-safe against concurrent run() and copy-from on the same
  /// kernel: the cached program is claimed with an atomic in-use flag;
  /// a contended run falls back to a private one-shot program (correct,
  /// just not amortized). Concurrent writes to the TARGET storage are
  /// still the caller's problem, exactly as for two serial runs.
  void run() const;

  /// Number of run() calls currently in flight (the ownership check moves
  /// and assignments enforce).
  int active_runs() const {
    return active_runs_.load(std::memory_order_acquire);
  }

  /// The C the compiler generates for this kernel: emit_linked_c's
  /// translation unit for the kernel's linked program, exporting
  /// `function_name` (compiler/emit_standalone.hpp). Plans emission does
  /// not cover (merge joins, levels without a flat shape, sparse fill-in)
  /// yield a one-line C comment carrying the refusal note instead.
  std::string emit(const std::string& function_name = "computed_kernel") const;

  /// Join-order / join-method summary.
  std::string describe_plan() const;

  /// Full EXPLAIN of the chosen plan: join order, join algorithm per
  /// level, access-method properties and cost estimates (see
  /// compiler/explain.hpp). Text tree and JSON forms.
  std::string explain() const;
  std::string explain_json(int indent = 0) const;

  const Plan& plan() const { return plan_; }
  const relation::Query& query() const { return query_; }

 private:
  friend CompiledKernel compile(const LoopNest&, const Bindings&,
                                const PlannerOptions&);
  // The statement over query relations: target += scale * prod(factors).
  struct BoundStatement {
    index_t target_rel = 0;            // Query::relations index
    std::vector<index_t> factor_rels;  // multiplied value fields
    value_t scale = 1.0;
  };
  relation::Query query_;
  Plan plan_;
  BoundStatement stmt_;
  // The iteration-space relation is synthesized by compile() and owned by
  // the kernel (other views belong to the Bindings).
  std::shared_ptr<relation::RelationView> interval_;
  struct LinkedProgram {
    LinkedRunner runner;
    LinkedMac mac;
    // Claimed by run() for the duration of one execution; a second run
    // arriving while set builds a private program instead of racing on
    // the shared runner scratch. The atomic makes the struct non-movable,
    // hence the explicit constructor for make_shared.
    std::atomic<bool> in_use{false};
    LinkedProgram(LinkedRunner r, LinkedMac m)
        : runner(std::move(r)), mac(std::move(m)) {}
  };
  // Rebuilds linked_ against this object's plan_/query_. relink_noexcept
  // swallows failures (move operations are noexcept); run() re-links
  // lazily in that case.
  void relink() const;
  void relink_noexcept() const noexcept;
  std::shared_ptr<LinkedProgram> build_program() const;
  // The only sanctioned reads/writes of linked_ — it is shared mutable
  // state between run() (lazy build) and copy/move (cache probe).
  std::shared_ptr<LinkedProgram> linked_snapshot() const {
    std::lock_guard<std::mutex> lk(link_mu_);
    return linked_;
  }
  void reset_linked() const {
    std::lock_guard<std::mutex> lk(link_mu_);
    linked_.reset();
  }
  // Terminates (through the noexcept move boundary) when a move or
  // assignment would rip storage out from under an in-flight run.
  void check_idle(const char* what) const;
  mutable std::shared_ptr<LinkedProgram> linked_;  // built on first run()
  mutable std::mutex link_mu_;                     // guards linked_
  mutable std::atomic<int> active_runs_{0};
};

/// The compiler pipeline: extract query -> sparsity predicate -> plan.
CompiledKernel compile(const LoopNest& nest, const Bindings& bindings,
                       const PlannerOptions& opts = {});

}  // namespace bernoulli::compiler
