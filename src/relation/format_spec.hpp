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
// Numbers are plain decimals that fit index_t. Each level's arrays are
// checked once against the positions of the level above: a ptr array has
// one entry per parent row plus one, never decreases and ends within its
// ind array; a function map has one entry per parent position; a sliced
// row's last lane lies inside its ind array; the value array covers the
// leaf's largest position.
//
// The resulting view plugs into Bindings::bind_view and from there into
// the ordinary compile/plan/run/emit pipeline — the whole point: the
// planner consumes only the advertised properties.
#pragma once

#include <map>
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

class GenericFormatView : public LevelStackView {
 public:
  /// Parses `spec` and wires the levels to `arrays`. Throws
  /// bernoulli::Error with a line-anchored message on syntax errors,
  /// unknown array names, malformed numbers, or arrays too short for the
  /// levels that read them (checked once here, in O(rows), from each
  /// level's descriptor).
  GenericFormatView(const std::string& spec, const FormatArrays& arrays);

  /// Bounds-checked; throws when the spec declares no value array.
  value_t value_at(index_t pos) const override;

  /// Loop-variable name declared for each level, in hierarchy order
  /// ("level i: ..." declares "i"). Useful for building Bindings
  /// level_to_ref mappings.
  const std::vector<std::string>& level_vars() const { return level_vars_; }

 private:
  struct Parsed;  // the spec, parsed and checked
  static Parsed parse(const std::string& spec, const FormatArrays& arrays);
  explicit GenericFormatView(Parsed parsed);
  std::vector<std::string> level_vars_;
};

}  // namespace bernoulli::relation
