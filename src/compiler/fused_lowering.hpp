// A fused pair lowered for compiler/fused_leaf.h: internal to the linked
// engine and the C emitter, so the header's C names stay out of link.hpp.
#pragma once

#include <vector>

#include "compiler/fused_leaf.h"
#include "compiler/link.hpp"

namespace bernoulli::compiler {

/// Every level-0 position is the outer row k, so an operand bound at
/// level 0 reads k, the leaf driver's values the leaf position and an
/// identity/affine leaf probe the leaf index.
struct FusedLowering {
  fl_leaf leaf{};
  fl_op target{};               // data unused: the target is mac.target_data
  std::vector<fl_op> factors;   // in multiplication order
  index_t rows = 0;             // the outer range [0, rows)
  bool acc = false;             // the target element is fixed per row
};

/// Refills `f` in place (no allocation once its factors fit). Requires
/// leaf_form(lp, mac) != kPerElement.
void lower_fused(const LinkedPlan& lp, const LinkedMac& mac, FusedLowering& f);

}  // namespace bernoulli::compiler
