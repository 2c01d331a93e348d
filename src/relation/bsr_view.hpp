// Relation view over BSR storage: A(i, j, a) with hierarchy I -> (J, V).
//
// Deliberately NOT a hand-written pair of levels: the view is a textual
// format spec handed to GenericFormatView —
//
//   format A {
//     level i: dense(rows);
//     level j: blocked(r=b, c=b, ptr=BROWPTR, ind=BCOLIND) sorted;
//     value VALS;
//   }
//
// which is the paper's claim made concrete: a new storage format costs
// one level spec, and the descriptor lowering gives it the cursor
// protocol, the register-blocked block-row drain, the specializer and
// EXPLAIN for free. Fill zeros inside stored tiles ARE enumerated (that is BCSR's
// bargain), so outputs match CSR bitwise only on block-dense matrices.
//
// The spec's arrays are the matrix's own browptr/bcolind/vals, borrowed:
// the view holds no index or value storage, so `m` must outlive it and
// keep its arrays unmoved.
#pragma once

#include "formats/bsr.hpp"
#include "relation/format_spec.hpp"

namespace bernoulli::relation {

class BsrView final : public GenericFormatView {
 public:
  BsrView(const std::string& name, const formats::Bsr& m);
};

}  // namespace bernoulli::relation
