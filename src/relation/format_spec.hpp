// Declarative format specifications — the paper's mechanism for teaching
// the compiler NEW storage formats without touching it ([13], §2.1: "the
// programmer must provide methods to search and enumerate the indices at
// that level, and must specify the properties of these methods").
//
// A GenericFormatView is built from a textual spec plus spans over the
// user's raw arrays, which it borrows: no index or value is copied, so the
// arrays must outlive the view and stay where they are (no reallocation).
// The built-in BCSR and SELL views (bsr_view.hpp, sell_view.hpp) are such
// specs over the matrix's own arrays; like every built-in view they
// borrow, so a bound matrix must outlive the kernels compiled against it
// and keep its arrays unmoved.
// Example — CSR described from scratch:
//
//   format A {
//     level i: dense(6);
//     level j: compressed(ptr=ROWPTR, ind=COLIND) sorted;
//     value VALS;
//   }
//
// Level kinds:
//   dense(N)                      — interval [0, N), position == index
//   compressed(ptr=P, ind=I)      — segment I[P[parent] .. P[parent+1])
//   list(ind=I)                   — root-level sorted index list
//   function(map=M)               — single child M[parent] (permutations)
//   blocked(r=R, c=C, ptr=P, ind=I)
//                                 — BCSR: block row parent/R owns blocks
//                                   P[parent/R] .. P[parent/R + 1]); block
//                                   b is an R x C value tile at offset
//                                   b*R*C, so row parent sees children
//                                   idx = I[b]*C + cc at
//                                   pos = b*R*C + (parent%R)*C + cc
//   sliced(chunk=C, sigma=S, base=B, len=L, ind=I)
//                                 — SELL-C-σ: entry k of row parent sits
//                                   at pos = B[parent] + k*C for
//                                   k in [0, L[parent]); padding lanes
//                                   are never enumerated
// Modifiers: `sorted` / `unsorted` (sparse levels; unsorted levels get
// linear search and are excluded from merge joins).
//
// The resulting view plugs into Bindings::bind_view and from there into
// the ordinary compile/plan/run/emit pipeline — the whole point: the
// planner consumes only the advertised properties.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relation/view.hpp"

namespace bernoulli::relation {

/// Named integer and value arrays the spec's levels reference, as borrowed
/// spans. The bundle itself may be a temporary; the arrays it points at
/// must outlive every view built from it and must not be reallocated.
struct FormatArrays {
  std::map<std::string, std::span<const index_t>> index_arrays;
  std::map<std::string, std::span<const value_t>> value_arrays;
};

class GenericFormatView : public RelationView {
 public:
  /// Parses `spec` and wires the levels to `arrays`. Throws
  /// bernoulli::Error with a line-anchored message on syntax errors,
  /// unknown array names, or structurally impossible specs.
  GenericFormatView(const std::string& spec, const FormatArrays& arrays);
  ~GenericFormatView() override;

  std::string name() const override { return name_; }
  index_t arity() const override {
    return static_cast<index_t>(levels_.size());
  }
  const IndexLevel& level(index_t depth) const override;
  bool has_value() const override { return !value_array_.empty(); }
  value_t value_at(index_t pos) const override;
  std::string value_expr(const std::string& pos) const override;

  /// The user's own value array (borrowed, never copied): flat and
  /// address-stable for the view's lifetime, so the linked engine's bulk
  /// drains and the specializer can address it directly.
  std::span<const value_t> value_array() const override { return values_; }

  /// Loop-variable name declared for each level, in hierarchy order
  /// ("level i: ..." declares "i"). Useful for building Bindings
  /// level_to_ref mappings.
  const std::vector<std::string>& level_vars() const { return level_vars_; }

 private:
  std::string name_;
  std::string value_array_;
  ConstVectorView values_;
  std::vector<std::string> level_vars_;
  std::vector<std::unique_ptr<IndexLevel>> levels_;
};

}  // namespace bernoulli::relation
