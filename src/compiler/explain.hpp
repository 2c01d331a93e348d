// EXPLAIN for execution plans (the observability layer's front door).
//
// Renders what the planner decided and why: the chosen join order, the
// join algorithm at every level, each access with the access-method
// PROPERTIES the cost model consumed (sortedness, denseness, search-cost
// class, expected size), and the per-level cardinality/cost estimates.
// Two forms:
//   - explain():      an indented text tree for humans (quickstart,
//                     docs/ARCHITECTURE.md transcripts);
//   - explain_json(): a machine-readable document for reports and
//                     regression tests (schema "bernoulli.explain.v1",
//                     locked by tests/explain_test.cpp).
//
// The estimates printed here are exactly Plan::est_iterations/est_cost —
// EXPLAIN never recomputes costs, so what it shows is what the planner
// ranked. Pair with support/metrics.hpp snapshots to compare estimates
// against measured probe/merge/tuple counts.
#pragma once

#include <string>

#include "compiler/plan.hpp"

namespace bernoulli::compiler {

/// Human-readable plan tree. One block per level, outermost first.
std::string explain(const Plan& plan, const relation::Query& q);

/// JSON rendering of the same information. `indent` > 0 pretty-prints.
std::string explain_json(const Plan& plan, const relation::Query& q,
                         int indent = 0);

}  // namespace bernoulli::compiler
