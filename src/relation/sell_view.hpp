// Relation view over SELL-C-sigma storage: A(i, j, a) with hierarchy
// I -> (J, V), enumerated per ORIGINAL row (the i index is the user's row
// number; the sigma-window length sort only moves where slots live).
//
// Like BsrView this is a textual format spec handed to GenericFormatView —
//
//   format A {
//     level i: dense(rows);
//     level j: sliced(chunk=C, sigma=S, base=ROWBASE, len=ROWLEN,
//                     ind=COLIND) sorted;
//     value VALS;
//   }
//
// — one level spec, no cursor backend. Padding lanes sit beyond every
// row's ROWLEN, so they are never enumerated and cannot perturb outputs
// or counters.
//
// The spec's arrays are the matrix's own rowbase/rowlen/colind/vals,
// borrowed: the view holds no index or value storage, so `m` must outlive
// it and keep its arrays unmoved.
#pragma once

#include "formats/sell.hpp"
#include "relation/format_spec.hpp"

namespace bernoulli::relation {

class SellView final : public GenericFormatView {
 public:
  SellView(const std::string& name, const formats::Sell& m);
};

}  // namespace bernoulli::relation
