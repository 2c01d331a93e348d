#include "spmd/dist_compile.hpp"

#include <algorithm>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace bernoulli::spmd {

using distrib::Distribution;
using formats::Csr;

VectorView DistKernel::x_owned() {
  return VectorView(*x_full_).first(static_cast<std::size_t>(sched_.owned));
}

ConstVectorView DistKernel::y_local() const { return *y_; }

void DistKernel::run(runtime::Process& p, int tag) const {
  support::PhaseScope phase("executor");
  support::TraceSpan span("dist_kernel.run", "spmd");
  std::fill(y_->begin(), y_->end(), 0.0);
  sched_.exchange(p, *x_full_, tag);
  kernel_->run();
}

std::string DistKernel::emit(const std::string& function_name) const {
  return kernel_->emit(function_name);
}

std::string DistKernel::describe_plan() const {
  return kernel_->describe_plan();
}

std::string DistKernel::explain() const { return kernel_->explain(); }

std::string DistKernel::explain_json(int indent) const {
  return kernel_->explain_json(indent);
}

DistKernel compile_dist_matvec(runtime::Process& p, const Csr& a,
                               const Distribution& rows) {
  support::TraceSpan span("compile_dist_matvec", "spmd");
  // The Bernoulli-Mixed inspector yields the localized fragment and the
  // communication schedule (collocation of A and Y on the row
  // distribution is what lets the fragment's rows stay purely local —
  // Eq. 20); then compile the local DENSE program against the fragment,
  // a single A' whose columns address x_full slots directly.
  FusedFragment frag = build_fused_fragment(p, a, rows);

  DistKernel k;
  k.sched_ = std::move(frag.sched);
  k.local_ = std::make_shared<Csr>(std::move(frag.a));
  k.x_full_ = std::make_shared<Vector>(
      static_cast<std::size_t>(k.sched_.full_size()), 0.0);
  k.y_ = std::make_shared<Vector>(static_cast<std::size_t>(k.sched_.owned),
                                  0.0);

  // The LOCAL dense program, compiled by the ordinary sequential pipeline.
  k.bindings_ = std::make_shared<compiler::Bindings>();
  k.bindings_->bind_csr("A", *k.local_);
  k.bindings_->bind_dense_vector("X", ConstVectorView(*k.x_full_));
  k.bindings_->bind_dense_vector("Y", VectorView(*k.y_));
  compiler::LoopNest local_nest{
      {{"i", k.local_->rows()}, {"j", k.local_->cols()}},
      {{"Y", {"i"}}, {{"A", {"i", "j"}}, {"X", {"j"}}}, 1.0},
  };
  k.kernel_ = std::make_shared<compiler::CompiledKernel>(
      compiler::compile(local_nest, *k.bindings_));
  return k;
}

}  // namespace bernoulli::spmd
