#include "compiler/loopnest.hpp"

#include <algorithm>

#include "compiler/emit_standalone.hpp"
#include "compiler/explain.hpp"
#include "relation/array_views.hpp"
#include "relation/bsr_view.hpp"
#include "relation/ell_view.hpp"
#include "relation/sell_view.hpp"
#include "relation/sparse_vector_view.hpp"
#include "support/error.hpp"

namespace bernoulli::compiler {

using relation::BoundRelation;
using relation::Query;

void Bindings::bind_csr(const std::string& name, const formats::Csr& m) {
  owned_.push_back(std::make_unique<relation::CsrView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_ccs(const std::string& name, const formats::Ccs& m) {
  owned_.push_back(std::make_unique<relation::CcsView>(name, m));
  // CCS binds the column first: hierarchy level 0 is reference position 1.
  entries_[name] = {owned_.back().get(), {1, 0}, /*sparse=*/true};
}

void Bindings::bind_coo(const std::string& name, const formats::Coo& m) {
  owned_.push_back(std::make_unique<relation::CooView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_ell(const std::string& name, const formats::Ell& m) {
  owned_.push_back(std::make_unique<relation::EllView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_bsr(const std::string& name, const formats::Bsr& m) {
  owned_.push_back(std::make_unique<relation::BsrView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_sell(const std::string& name, const formats::Sell& m) {
  owned_.push_back(std::make_unique<relation::SellView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/true};
}

void Bindings::bind_dense_matrix(const std::string& name, formats::Dense& m) {
  owned_.push_back(std::make_unique<relation::DenseMatrixView>(name, m));
  entries_[name] = {owned_.back().get(), {0, 1}, /*sparse=*/false};
}

void Bindings::bind_dense_vector(const std::string& name, VectorView v) {
  owned_.push_back(std::make_unique<relation::DenseVectorView>(name, v));
  entries_[name] = {owned_.back().get(), {0}, /*sparse=*/false};
}

void Bindings::bind_dense_vector(const std::string& name, ConstVectorView v) {
  owned_.push_back(std::make_unique<relation::DenseVectorView>(name, v));
  entries_[name] = {owned_.back().get(), {0}, /*sparse=*/false};
}

void Bindings::bind_sparse_vector(const std::string& name,
                                  const formats::SparseVector& v) {
  owned_.push_back(std::make_unique<relation::SparseVectorView>(name, v));
  entries_[name] = {owned_.back().get(), {0}, /*sparse=*/true};
}

void Bindings::bind_view(const std::string& name, relation::RelationView* view,
                         std::vector<index_t> level_to_ref, bool sparse) {
  BERNOULLI_CHECK(view != nullptr);
  entries_[name] = {view, std::move(level_to_ref), sparse};
}

const Bindings::Entry& Bindings::lookup(const std::string& name) const {
  auto it = entries_.find(name);
  BERNOULLI_CHECK_MSG(it != entries_.end(), "array " << name << " is unbound");
  return it->second;
}

namespace {

// Adds one array reference to the query; returns its relation slot.
index_t add_relation(Query& q, const Bindings& bindings, const ArrayRef& ref,
                     bool writes, bool filters) {
  const auto& entry = bindings.lookup(ref.array);
  BERNOULLI_CHECK_MSG(
      entry.level_to_ref.size() == ref.vars.size(),
      ref.array << " referenced with " << ref.vars.size()
                << " subscripts but bound with "
                << entry.level_to_ref.size());
  BoundRelation rel;
  rel.view = entry.view;
  rel.vars.resize(ref.vars.size());
  for (std::size_t d = 0; d < ref.vars.size(); ++d)
    rel.vars[d] = ref.vars[static_cast<std::size_t>(entry.level_to_ref[d])];
  rel.filters = filters;
  rel.writes = writes;
  q.relations.push_back(std::move(rel));
  return static_cast<index_t>(q.relations.size()) - 1;
}

}  // namespace

CompiledKernel compile(const LoopNest& nest, const Bindings& bindings,
                       const PlannerOptions& opts) {
  BERNOULLI_CHECK_MSG(!nest.loops.empty(), "loop nest has no loops");
  BERNOULLI_CHECK_MSG(!nest.body.factors.empty(),
                      "statement has no factors");

  CompiledKernel kernel;
  Query& q = kernel.query_;
  for (const auto& loop : nest.loops) q.vars.push_back(loop.var);

  // The iteration-space relation I(i, j, ...) carries the loop bounds and
  // is order-free (its levels are an unconstrained cross product).
  {
    std::vector<index_t> extents;
    for (const auto& loop : nest.loops) extents.push_back(loop.extent);
    kernel.interval_ =
        std::make_unique<relation::IntervalView>("I", std::move(extents));
    BoundRelation rel;
    rel.view = kernel.interval_.get();
    rel.vars = q.vars;
    rel.filters = true;  // loop bounds always constrain
    rel.order_free = true;
    q.relations.push_back(std::move(rel));
  }

  // Sparsity predicate (paper Eq. 3, computed with Bik & Wijshoff's rule):
  // a sparse array in a multiplicative position annihilates the update, so
  // it filters; the accumulation target never filters.
  kernel.stmt_.target_rel = add_relation(q, bindings, nest.body.target,
                                         /*writes=*/true, /*filters=*/false);
  kernel.stmt_.scale = nest.body.scale;
  for (const auto& f : nest.body.factors) {
    bool sparse = bindings.lookup(f.array).sparse;
    kernel.stmt_.factor_rels.push_back(
        add_relation(q, bindings, f, /*writes=*/false, /*filters=*/sparse));
  }

  kernel.plan_ = plan_query(q, opts);
  return kernel;
}

std::shared_ptr<CompiledKernel::LinkedProgram> CompiledKernel::build_program()
    const {
  return std::make_shared<LinkedProgram>(
      LinkedRunner(link_plan(plan_, query_)),
      link_mac(query_, stmt_.target_rel, stmt_.factor_rels, stmt_.scale));
}

void CompiledKernel::relink() const {
  // Build outside the lock (linking is the expensive part), publish under
  // it — linked_ is read concurrently by copies and runs.
  std::shared_ptr<LinkedProgram> built = build_program();
  std::lock_guard<std::mutex> lk(link_mu_);
  linked_ = std::move(built);
}

void CompiledKernel::relink_noexcept() const noexcept {
  try {
    relink();
  } catch (...) {
    reset_linked();
  }
}

void CompiledKernel::check_idle(const char* what) const {
  BERNOULLI_CHECK_MSG(
      active_runs_.load(std::memory_order_acquire) == 0,
      "CompiledKernel " << what << " while a run() is in flight; the "
      "linked program borrows this kernel's plan/query storage");
}

void CompiledKernel::run() const {
  std::shared_ptr<LinkedProgram> sp = linked_snapshot();
  if (!sp) {
    std::shared_ptr<LinkedProgram> built = build_program();
    std::lock_guard<std::mutex> lk(link_mu_);
    if (!linked_) linked_ = std::move(built);
    sp = linked_;
  }
  active_runs_.fetch_add(1, std::memory_order_acq_rel);
  // Claim the cached program; a contended second run gets a private
  // one-shot program instead of racing on the shared runner scratch.
  const bool claimed = !sp->in_use.exchange(true, std::memory_order_acquire);
  if (!claimed) sp = build_program();
  try {
    sp->runner.run(sp->mac);
  } catch (...) {
    if (claimed) sp->in_use.store(false, std::memory_order_release);
    active_runs_.fetch_sub(1, std::memory_order_acq_rel);
    throw;
  }
  if (claimed) sp->in_use.store(false, std::memory_order_release);
  active_runs_.fetch_sub(1, std::memory_order_acq_rel);
}

std::string CompiledKernel::emit(const std::string& function_name) const {
  const LinkedEmission e = emit_linked_c(
      link_plan(plan_, query_),
      link_mac(query_, stmt_.target_rel, stmt_.factor_rels, stmt_.scale),
      function_name);
  if (e.ok) return e.source;
  return "/* " + function_name + " not emitted: " + e.note + " */\n";
}

std::string CompiledKernel::describe_plan() const {
  return plan_.describe(query_);
}

std::string CompiledKernel::explain() const {
  return compiler::explain(plan_, query_);
}

std::string CompiledKernel::explain_json(int indent) const {
  return compiler::explain_json(plan_, query_, indent);
}

}  // namespace bernoulli::compiler
