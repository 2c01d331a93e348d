#include "compiler/explain.hpp"

#include <cstdio>
#include <sstream>

#include "compiler/link.hpp"
#include "compiler/emit_standalone.hpp"
#include "support/json_writer.hpp"

namespace bernoulli::compiler {

using relation::Query;
using relation::SearchCost;

namespace {

const char* search_cost_text(SearchCost c) {
  switch (c) {
    case SearchCost::kConstant: return "O(1)";
    case SearchCost::kLog: return "O(log n)";
    case SearchCost::kLinear: return "O(n)";
  }
  return "?";
}

const char* search_cost_json(SearchCost c) {
  switch (c) {
    case SearchCost::kConstant: return "const";
    case SearchCost::kLog: return "log";
    case SearchCost::kLinear: return "linear";
  }
  return "?";
}

const char* method_name(JoinMethod m) {
  return m == JoinMethod::kMerge ? "merge" : "enumerate";
}

// %.6g keeps estimates readable (they are products of expected sizes, not
// precise quantities) and stable across platforms.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct AccessInfo {
  const relation::BoundRelation* rel;
  const relation::IndexLevel* level;
  std::string var;
};

AccessInfo access_info(const Query& q, const Access& a) {
  const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
  return {&rel, &rel.view->level(a.depth),
          rel.vars[static_cast<std::size_t>(a.depth)]};
}

// One text line for an access:
//   A[0] binds i  (sorted, search O(log n), E[n]=5.2, filters)
std::string access_text(const Query& q, const Access& a) {
  AccessInfo info = access_info(q, a);
  const auto props = info.level->properties();
  std::ostringstream os;
  os << info.rel->view->name() << "[" << a.depth << "] binds " << info.var
     << "  (";
  if (props.dense) os << "dense, ";
  if (props.sorted) os << "sorted, ";
  os << "search " << search_cost_text(props.search_cost) << ", E[n]="
     << num(info.level->expected_size());
  if (info.rel->filters) os << ", filters";
  if (info.rel->writes) os << ", writes";
  if (info.rel->order_free) os << ", order-free";
  os << ")";
  return os.str();
}

void access_json(support::JsonWriter& w, const Query& q, const Access& a) {
  AccessInfo info = access_info(q, a);
  const auto props = info.level->properties();
  w.begin_object();
  w.key("relation").value(info.rel->view->name());
  w.key("rel").value(static_cast<long long>(a.rel));
  w.key("depth").value(static_cast<long long>(a.depth));
  w.key("var").value(info.var);
  w.key("sorted").value(props.sorted);
  w.key("dense").value(props.dense);
  w.key("search").value(search_cost_json(props.search_cost));
  w.key("expected_size").value(info.level->expected_size());
  w.key("filters").value(info.rel->filters);
  w.key("writes").value(info.rel->writes);
  w.end_object();
}

}  // namespace

std::string explain(const Plan& plan, const Query& q) {
  // One link: the parallel and specialization verdicts both read it.
  const LinkedPlan lp = link_plan(plan, q);
  std::ostringstream os;
  os << "plan: " << plan.levels.size() << " level"
     << (plan.levels.size() == 1 ? "" : "s") << ", est. total cost "
     << num(plan.total_cost) << "\n";
  for (const auto& level : plan.levels) {
    os << "for " << level.var << ": " << method_name(level.method);
    if (level.method == JoinMethod::kMerge)
      os << "-join of " << level.drivers.size();
    os << "\n";
    for (const auto& d : level.drivers)
      os << "  driver " << access_text(q, d) << "\n";
    for (const auto& p : level.probes)
      os << "  probe  " << access_text(q, p) << "\n";
    os << "  est " << num(level.est_iterations) << " binding"
       << (level.est_iterations == 1.0 ? "" : "s") << ", cost "
       << num(level.est_cost) << " per outer iteration\n";
  }
  os << "parallel: " << (lp.parallel_ok ? "" : "serial fallback — ")
     << lp.parallel_note << "\n";
  const SpecializeLegality spec = plan_specialize_legality(lp);
  os << "specialize: " << (spec.ok ? "" : "linked fallback — ") << spec.note
     << "\n";
  // Per-level storage descriptors of the driving access methods — the
  // shapes the cursor lowering switches on (blocked 4x4, sliced C=8 ...).
  for (std::size_t d = 0; d < lp.levels.size(); ++d)
    os << "level " << d << ": "
       << relation::descriptor_text(lp.levels[d].drivers[0].desc) << "\n";
  return os.str();
}

std::string explain_json(const Plan& plan, const Query& q, int indent) {
  const LinkedPlan lp = link_plan(plan, q);
  support::JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("bernoulli.explain.v1");
  w.key("total_cost").value(plan.total_cost);
  w.key("levels").begin_array();
  for (const auto& level : plan.levels) {
    w.begin_object();
    w.key("var").value(level.var);
    w.key("method").value(method_name(level.method));
    w.key("est_iterations").value(level.est_iterations);
    w.key("est_cost").value(level.est_cost);
    w.key("drivers").begin_array();
    for (const auto& d : level.drivers) access_json(w, q, d);
    w.end_array();
    w.key("probes").begin_array();
    for (const auto& p : level.probes) access_json(w, q, p);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("parallel").begin_object();
  w.key("ok").value(lp.parallel_ok);
  w.key("note").value(lp.parallel_note);
  w.end_object();
  const SpecializeLegality spec = plan_specialize_legality(lp);
  w.key("specialize").begin_object();
  w.key("ok").value(spec.ok);
  w.key("note").value(spec.note);
  w.end_object();
  w.key("descriptors").begin_array();
  for (const LinkedLevel& lv : lp.levels)
    w.value(relation::descriptor_text(lv.drivers[0].desc));
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace bernoulli::compiler
