#include "compiler/link.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "compiler/explain.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace bernoulli::compiler {

using relation::Query;

namespace {

int find_var_slot(const Query& q, const std::string& v) {
  auto it = std::find(q.vars.begin(), q.vars.end(), v);
  BERNOULLI_CHECK_MSG(it != q.vars.end(), "unbound variable " << v);
  return static_cast<int>(it - q.vars.begin());
}

// Link-time index range of everything a level can enumerate — the same
// whole-structure scan the specializing emitter uses for its always-hit
// probe proofs (emit_standalone.cpp). O(nnz) once at link time, i.e.
// inspector-phase work. mx < mn means the level enumerates nothing.
struct IndexRange {
  index_t mn = 0;
  index_t mx = -1;
};

IndexRange scan_index_range(const index_t* a, index_t n) {
  IndexRange r;
  if (a == nullptr || n <= 0) return r;
  r.mn = r.mx = a[0];
  for (index_t k = 1; k < n; ++k) {
    r.mn = std::min(r.mn, a[k]);
    r.mx = std::max(r.mx, a[k]);
  }
  return r;
}

IndexRange enum_index_range(const relation::EnumSpec& es) {
  using Kind = relation::EnumSpec::Kind;
  switch (es.kind) {
    case Kind::kDense: {
      IndexRange r;
      if (es.extent > 0) {
        r.mn = 0;
        r.mx = es.extent - 1;
      }
      return r;
    }
    case Kind::kSegmented:
    case Kind::kList:
    case Kind::kStrided:
    case Kind::kOffsets:
      return scan_index_range(es.ind, es.ind_len);
    case Kind::kBlocked: {
      // ind holds block columns; each expands to lanes
      // [ind[b]*c, ind[b]*c + c - 1].
      IndexRange r = scan_index_range(es.ind, es.ind_len);
      if (r.mx >= r.mn) {
        r.mn = r.mn * es.block_c;
        r.mx = r.mx * es.block_c + es.block_c - 1;
      }
      return r;
    }
    case Kind::kSliced:
      // Scans the whole lane-major array including padding slots; padding
      // holds column 0, which can only widen the range toward 0 — a safe
      // over-approximation for the in-window proofs below.
      return scan_index_range(es.ind, es.ind_len);
    case Kind::kFunction:
      return scan_index_range(es.map, es.map_len);
    case Kind::kNone:
      break;
  }
  return {};
}

// Link-time always-hit proof for one enumerate level: every probe lowers
// to pure arithmetic (identity/affine), never inserts, searches by the
// level's own variable, and the driver's whole enumerable index range
// provably lands inside every probe's accepting window. The bulk leaf
// drain then skips its per-invocation min/max scan of the cursor range.
// (A probe searching by an outer variable — B[i,j] probed at i's level
// for its j child — sees a different index than the driver enumerates.)
bool prove_all_hit(const PlanLevel& pl, const Query& q) {
  if (pl.method != JoinMethod::kEnumerate || pl.drivers.size() != 1)
    return false;
  const Access& d = pl.drivers[0];
  const relation::EnumSpec es =
      q.relations[static_cast<std::size_t>(d.rel)].view->level(d.depth)
          .enum_spec();
  if (es.kind == relation::EnumSpec::Kind::kNone) return false;
  const IndexRange r = enum_index_range(es);
  for (const Access& a : pl.probes) {
    const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
    const relation::IndexLevel& level = rel.view->level(a.depth);
    if (rel.writes && level.insertable()) return false;
    if (rel.vars[static_cast<std::size_t>(a.depth)] != pl.var) return false;
    const relation::SearchSpec ss = level.search_spec();
    if (ss.kind != relation::SearchSpec::Kind::kIdentity &&
        ss.kind != relation::SearchSpec::Kind::kAffine)
      return false;
    if (r.mx >= r.mn && (r.mn < 0 || r.mx >= ss.extent)) return false;
  }
  return true;
}

// Owner-computes shape (see ParallelLegality): a two-level enumerate plan
// over a dense outer range whose leaf walks sorted compressed segments of
// the outer variable, every probe proved all-hit, and every written
// relation a vector of the leaf variable probed there (the all-hit proof
// makes that probe an identity or affine search).
bool owner_computes_shape(const Plan& plan, const Query& q) {
  using K = relation::LevelDescriptor::Kind;
  if (plan.levels.size() != 2) return false;
  for (const PlanLevel& pl : plan.levels)
    if (!prove_all_hit(pl, q)) return false;
  const PlanLevel& outer = plan.levels[0];
  const PlanLevel& leaf = plan.levels[1];
  auto rel_of = [&](const Access& a) -> const auto& {
    return q.relations[static_cast<std::size_t>(a.rel)];
  };
  const Access& od = outer.drivers[0];
  if (rel_of(od).view->level(od.depth).describe().kind != K::kDense)
    return false;
  for (const Access& a : outer.probes)
    if (a.depth != 0) return false;
  const Access& ld = leaf.drivers[0];
  const relation::LevelDescriptor ldesc =
      rel_of(ld).view->level(ld.depth).describe();
  if (ldesc.kind != K::kCompressed || !ldesc.sorted || ld.depth != 1 ||
      rel_of(ld).vars[0] != outer.var)
    return false;
  for (std::size_t r = 0; r < q.relations.size(); ++r) {
    const auto& rel = q.relations[r];
    if (!rel.writes) continue;
    if (rel.vars.size() != 1 || rel.vars[0] != leaf.var ||
        std::none_of(leaf.probes.begin(), leaf.probes.end(),
                     [&](const Access& a) {
                       return a.rel == static_cast<index_t>(r);
                     }))
      return false;
  }
  return true;
}

}  // namespace

LinkedPlan link_plan(const Plan& plan, const Query& q) {
  q.validate();

  LinkedPlan lp;
  lp.plan = &plan;
  lp.query = &q;

  // Flat position-slot layout: one slot per (relation, depth), relations
  // laid out consecutively. Replaces the interpreter's vector-of-vectors.
  std::vector<int> pos_ofs(q.relations.size(), 0);
  int slots = 0;
  for (std::size_t r = 0; r < q.relations.size(); ++r) {
    pos_ofs[r] = slots;
    slots += static_cast<int>(q.relations[r].vars.size());
  }
  lp.pos_slots = slots;
  lp.leaf_slot.resize(q.relations.size());
  for (std::size_t r = 0; r < q.relations.size(); ++r)
    lp.leaf_slot[r] =
        pos_ofs[r] + static_cast<int>(q.relations[r].vars.size()) - 1;

  auto lower_access = [&](const Access& a) {
    const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
    BERNOULLI_CHECK(a.depth >= 0 &&
                    a.depth < static_cast<index_t>(rel.vars.size()));
    LinkedAccess la;
    la.level = &rel.view->level(a.depth);
    la.desc = la.level->describe();
    la.rel = a.rel;
    la.depth = a.depth;
    la.pos_slot =
        pos_ofs[static_cast<std::size_t>(a.rel)] + static_cast<int>(a.depth);
    la.parent_slot = a.depth == 0 ? -1 : la.pos_slot - 1;
    return la;
  };

  lp.levels.reserve(plan.levels.size());
  for (std::size_t d = 0; d < plan.levels.size(); ++d) {
    const PlanLevel& pl = plan.levels[d];
    LinkedLevel ll;
    ll.method = pl.method;
    ll.var_slot = find_var_slot(q, pl.var);
    BERNOULLI_CHECK_MSG(!pl.drivers.empty(),
                        "plan level " << pl.var << " has no drivers");
    if (pl.method == JoinMethod::kEnumerate)
      BERNOULLI_CHECK(pl.drivers.size() == 1);
    for (const Access& a : pl.drivers) ll.drivers.push_back(lower_access(a));
    for (const Access& a : pl.probes) {
      const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
      LinkedProbe pr;
      pr.access = lower_access(a);
      pr.search = pr.access.level->search_spec();
      pr.var_slot =
          find_var_slot(q, rel.vars[static_cast<std::size_t>(a.depth)]);
      pr.filters = rel.filters;
      pr.insert_on_miss = rel.writes && pr.access.level->insertable();
      // Insertable levels grow their arrays mid-run, so a flat spec
      // captured now could dangle after the first fill-in. Probe those
      // through the virtual method, which always sees current storage.
      if (pr.insert_on_miss) pr.search = relation::SearchSpec{};
      ll.probes.push_back(pr);
    }
    ll.proved_all_hit = prove_all_hit(pl, q);
    lp.levels.push_back(std::move(ll));
  }
  // Blocked levels group block_r consecutive parent bindings into one
  // block row; when such a level hangs directly off the outer variable,
  // thread chunks are rounded up to block_r so no block row's rows split
  // across threads (shared ptr/ind/vals segments stay thread-local).
  if (!plan.levels.empty()) {
    for (const LinkedLevel& ll : lp.levels)
      for (const LinkedAccess& a : ll.drivers) {
        if (a.depth == 0) continue;
        const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
        if (rel.vars[static_cast<std::size_t>(a.depth) - 1] !=
            plan.levels[0].var)
          continue;
        if (a.desc.kind == relation::LevelDescriptor::Kind::kBlocked)
          lp.chunk_align = std::max(lp.chunk_align, a.desc.block_r);
      }
  }
  ParallelLegality leg = plan_parallel_legality(plan, q);
  lp.parallel_ok = leg.ok;
  lp.owner_computes = leg.owner_computes;
  lp.parallel_note = std::move(leg.note);
  lp.footprint = derive_footprint(plan, q);
  lp.sink = support::RunSink(lp.levels.size());
  return lp;
}

std::uint64_t plan_fingerprint(const Plan& plan, const relation::Query& q) {
  // FNV-1a 64 over the EXPLAIN document (join order/methods, access paths,
  // level descriptors — everything structural the linker consumes) plus
  // each relation's view name, bound variables and access role. EXPLAIN is
  // deterministic for a given pair, so equal inputs hash equal across
  // processes and runs.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xFFu;  // field separator: "ab"+"c" must not collide with "a"+"bc"
    h *= 1099511628211ULL;
  };
  mix(explain_json(plan, q, 0));
  for (const auto& rel : q.relations) {
    mix(rel.view->name());
    for (const std::string& v : rel.vars) mix(v);
    mix(rel.writes ? "w" : (rel.filters ? "f" : "r"));
  }
  return h;
}

PlanFootprint derive_footprint(const Plan& plan, const Query& q) {
  PlanFootprint fp;
  fp.operands.reserve(q.relations.size());
  for (const auto& rel : q.relations)
    fp.operands.push_back({rel.view->name(), 0, 0});

  auto inexact = [&](std::string why) {
    fp = PlanFootprint{};
    for (const auto& rel : q.relations)
      fp.operands.push_back({rel.view->name(), 0, 0});
    fp.note = std::move(why);
    return fp;
  };

  constexpr long long szi = static_cast<long long>(sizeof(index_t));
  constexpr long long szv = static_cast<long long>(sizeof(value_t));

  // Walk the plan levels tracking `produced`, the number of times the next
  // level's frame opens (= tuples surviving this level). Exactness needs
  // every enumeration count to be a static function of the specs, which is
  // the same discipline as the bulk-drain proof: flat enumerate levels,
  // always-hit arithmetic probes, segment levels invoked once per parent.
  // (rel, depth) pairs bound by a DRIVER are recorded so segmented /
  // per-parent-count levels can require once-per-parent coverage (a parent
  // bound by a probe could repeat or skip segments).
  std::vector<std::vector<bool>> driver_bound(q.relations.size());
  for (std::size_t r = 0; r < q.relations.size(); ++r)
    driver_bound[r].assign(q.relations[r].vars.size(), false);

  long long produced = 1;  // root invocation
  for (std::size_t d = 0; d < plan.levels.size(); ++d) {
    const PlanLevel& pl = plan.levels[d];
    const long long parents = produced;  // frames opening this level
    if (pl.method != JoinMethod::kEnumerate)
      return inexact("level " + pl.var +
                     " is a merge join (enumeration count is data-dependent "
                     "on finger interleaving)");
    const Access& a = pl.drivers[0];
    const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
    const relation::EnumSpec es = rel.view->level(a.depth).enum_spec();
    PlanFootprint::Operand& op = fp.operands[static_cast<std::size_t>(a.rel)];
    const bool root_parent = a.depth == 0;
    const bool parent_covered =
        root_parent ||
        driver_bound[static_cast<std::size_t>(a.rel)]
                    [static_cast<std::size_t>(a.depth) - 1];
    long long enumerated = 0;
    switch (es.kind) {
      case relation::EnumSpec::Kind::kNone:
        return inexact(rel.view->name() + " level " + pl.var +
                       " has no flat enumeration spec");
      case relation::EnumSpec::Kind::kDense:
        enumerated = produced * es.extent;
        break;
      case relation::EnumSpec::Kind::kList:
        enumerated = produced * es.extent;
        op.index_bytes += enumerated * szi;  // ind[p] per element
        break;
      case relation::EnumSpec::Kind::kFunction:
        enumerated = produced;               // the single child
        op.index_bytes += produced * szi;    // map[parent] per invocation
        break;
      case relation::EnumSpec::Kind::kSegmented: {
        if (root_parent) {
          if (es.ptr_len < 2)
            return inexact(rel.view->name() + " segmented level " + pl.var +
                           " has an empty ptr array");
          enumerated = produced * (es.ptr[1] - es.ptr[0]);
        } else {
          if (!parent_covered || produced != es.ptr_len - 1)
            return inexact(rel.view->name() + " segmented level " + pl.var +
                           " is not invoked exactly once per segment");
          enumerated = es.ptr[es.ptr_len - 1] - es.ptr[0];
        }
        op.index_bytes += enumerated * szi;      // ind[p] per element
        op.index_bytes += 2 * produced * szi;    // segment bounds
        break;
      }
      case relation::EnumSpec::Kind::kStrided:
      case relation::EnumSpec::Kind::kOffsets: {
        long long count = 0;
        if (root_parent) {
          if (es.len_len < 1)
            return inexact(rel.view->name() + " level " + pl.var +
                           " has an empty len array");
          count = produced * es.len[0];
        } else {
          if (!parent_covered || produced != es.len_len)
            return inexact(rel.view->name() + " level " + pl.var +
                           " is not invoked exactly once per parent");
          for (index_t p = 0; p < es.len_len; ++p) count += es.len[p];
        }
        enumerated = count;
        op.index_bytes += produced * szi;    // len[parent] per invocation
        op.index_bytes += enumerated * szi;  // ind[pos] per element
        if (es.kind == relation::EnumSpec::Kind::kOffsets)
          op.index_bytes += enumerated * szi;  // off[k] per element
        break;
      }
      case relation::EnumSpec::Kind::kBlocked: {
        // Block rows group block_r parents; each parent row re-walks its
        // block row's (ptr[br+1]-ptr[br]) blocks, c lanes per block. Fill
        // zeros inside stored blocks ARE enumerated, so no padding here.
        if (es.ptr_len < 2)
          return inexact(rel.view->name() + " blocked level " + pl.var +
                         " has an empty block ptr array");
        if (root_parent) {
          enumerated =
              produced * (es.ptr[1] - es.ptr[0]) * es.block_c;
        } else {
          if (!parent_covered ||
              produced != static_cast<long long>(es.block_r) *
                              (es.ptr_len - 1))
            return inexact(rel.view->name() + " blocked level " + pl.var +
                           " is not invoked once per row of every block row");
          enumerated = static_cast<long long>(es.ptr[es.ptr_len - 1] -
                                              es.ptr[0]) *
                       es.block_r * es.block_c;
        }
        op.index_bytes += 2 * produced * szi;    // block-row bounds
        op.index_bytes += enumerated * szi;      // ind[b] per lane visit
        break;
      }
      case relation::EnumSpec::Kind::kSliced: {
        // Chunk-sliced (SELL-C-σ): each parent row walks len[parent]
        // lane-strided slots starting at off[parent]. Padding lanes past a
        // row's length are stored but never enumerated — booked as
        // padding_bytes, not traffic.
        long long count = 0;
        if (root_parent) {
          if (es.len_len < 1)
            return inexact(rel.view->name() + " sliced level " + pl.var +
                           " has an empty len array");
          count = produced * es.len[0];
        } else {
          if (!parent_covered || produced != es.len_len)
            return inexact(rel.view->name() + " sliced level " + pl.var +
                           " is not invoked exactly once per row");
          for (index_t p = 0; p < es.len_len; ++p) count += es.len[p];
          fp.padding_bytes += (es.ind_len - count) * (szi + szv);
        }
        enumerated = count;
        op.index_bytes += produced * szi;    // len[parent] per invocation
        op.index_bytes += produced * szi;    // off[parent] per invocation
        op.index_bytes += enumerated * szi;  // ind[pos] per element
        break;
      }
    }
    driver_bound[static_cast<std::size_t>(a.rel)]
                [static_cast<std::size_t>(a.depth)] = true;
    for (const Access& pa : pl.probes) {
      const auto& prel = q.relations[static_cast<std::size_t>(pa.rel)];
      const relation::IndexLevel& plevel = prel.view->level(pa.depth);
      const relation::SearchSpec ss = plevel.search_spec();
      if (prel.writes && plevel.insertable())
        return inexact(prel.view->name() +
                       " inserts on miss (fill-in count is data-dependent)");
      if (ss.kind != relation::SearchSpec::Kind::kIdentity &&
          ss.kind != relation::SearchSpec::Kind::kAffine)
        return inexact(prel.view->name() + " probe at " + pl.var +
                       " is not an always-hit arithmetic search");
      if (prel.filters) {
        // A filtering identity/affine probe rejects indices outside
        // [0, ss.extent) — data-dependent in general, but exact when the
        // driver's whole index range provably fits the accepting window
        // (the iteration-space relation I always filters, so CSR/CCS SpMV
        // depends on this proof).
        const IndexRange r = enum_index_range(es);
        if (r.mx >= r.mn && (r.mn < 0 || r.mx >= ss.extent))
          return inexact(prel.view->name() + " filter at " + pl.var +
                         " may reject (driver enumerates [" +
                         std::to_string(r.mn) + ", " + std::to_string(r.mx) +
                         "], probe accepts [0, " + std::to_string(ss.extent) +
                         "))");
      }
      // Identity/affine probes are pure arithmetic: no index bytes.
      //
      // A single frame enumerating a dense range [0, extent) and probing
      // an identity level of the same extent visits each position exactly
      // once — the bijection a driver would give. Mark the probed
      // (rel, depth) covered so a segmented child below it can still prove
      // once-per-segment (CSR/CCS SpMV drives rows from the iteration
      // space and identity-probes the matrix's row level).
      if (parents == 1 && ss.kind == relation::SearchSpec::Kind::kIdentity &&
          es.kind == relation::EnumSpec::Kind::kDense &&
          es.extent == ss.extent)
        driver_bound[static_cast<std::size_t>(pa.rel)]
                    [static_cast<std::size_t>(pa.depth)] = true;
    }
    produced = enumerated;
  }
  fp.leaf_tuples = produced;

  // Value traffic and flops for the multiply-accumulate statement: each
  // read operand with values streams one value per leaf tuple; a written
  // operand is read-modify-write (2x). The iteration-space relation I has
  // no values (RelationView::has_value) and contributes nothing.
  long long writes = 0;
  long long reads = 0;
  for (std::size_t r = 0; r < q.relations.size(); ++r) {
    const auto& rel = q.relations[r];
    if (!rel.view->has_value()) continue;
    if (rel.writes) {
      fp.operands[r].value_bytes = 2 * fp.leaf_tuples * szv;
      ++writes;
    } else {
      fp.operands[r].value_bytes = fp.leaf_tuples * szv;
      ++reads;
    }
  }
  // Per leaf tuple: one multiply + one add per written target, plus one
  // extra multiply per factor beyond the first two value operands.
  fp.flops = 2 * fp.leaf_tuples * writes +
             std::max(0LL, reads - 2) * fp.leaf_tuples;
  fp.exact = true;
  fp.note = "exact: " + std::to_string(plan.levels.size()) + " flat levels, " +
            std::to_string(fp.leaf_tuples) + " leaf tuples";
  return fp;
}

ParallelLegality plan_parallel_legality(const Plan& plan, const Query& q) {
  if (plan.levels.empty())
    return {false, "plan has no levels"};
  const PlanLevel& outer = plan.levels[0];
  if (outer.method == JoinMethod::kMerge)
    return {false, "outer level " + outer.var +
                       " is a merge join (chunking the k-finger sweep "
                       "would change merge_steps)"};
  // Scan every access the plan touches for mid-run mutation or stateful
  // virtual search; either makes concurrent frames unsafe.
  auto scan_access = [&](const Access& a) -> std::string {
    const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
    const relation::IndexLevel& level = rel.view->level(a.depth);
    const std::string var = rel.vars[static_cast<std::size_t>(a.depth)];
    if (rel.writes && level.insertable())
      return rel.view->name() + " inserts on miss at " + var +
             " (fill-in grows shared storage)";
    return "";
  };
  auto scan_probe = [&](const Access& a) -> std::string {
    if (std::string why = scan_access(a); !why.empty()) return why;
    const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
    const relation::IndexLevel& level = rel.view->level(a.depth);
    if (level.search_spec().kind == relation::SearchSpec::Kind::kVirtual)
      return rel.view->name() + " probes " +
             rel.vars[static_cast<std::size_t>(a.depth)] +
             " through a stateful virtual search";
    return "";
  };
  for (const PlanLevel& pl : plan.levels) {
    for (const Access& a : pl.drivers)
      if (std::string why = scan_access(a); !why.empty()) return {false, why};
    for (const Access& a : pl.probes)
      if (std::string why = scan_probe(a); !why.empty()) return {false, why};
  }
  // Disjoint output rows: every written relation must bind the outer
  // variable at its root level, so distinct outer bindings land in
  // disjoint storage segments and no cross-thread reduction is needed.
  for (const auto& rel : q.relations) {
    if (!rel.writes) continue;
    if (rel.vars.empty() || rel.vars[0] != outer.var) {
      // The output is indexed by an inner variable: chunking the outer
      // level would race on it. A column walk into a vector of the leaf
      // variable can still split the OUTPUT instead (owner-computes).
      if (owner_computes_shape(plan, q))
        return {true,
                "owner-computes — rows of " + rel.view->name() +
                    " split across T threads; each walks its segment of "
                    "every column",
                true};
      return {false, "output " + rel.view->name() +
                         " rows are not partitioned by the outer variable " +
                         outer.var};
    }
  }
  return {true, "outer level " + outer.var +
                    " chunked across threads (disjoint output rows)"};
}

LinkedMac link_mac(const Query& q, index_t target_rel,
                   const std::vector<index_t>& factor_rels, value_t scale) {
  BERNOULLI_CHECK(target_rel >= 0 &&
                  target_rel < static_cast<index_t>(q.relations.size()));
  LinkedMac mac;
  mac.target = q.relations[static_cast<std::size_t>(target_rel)].view;
  BERNOULLI_CHECK(mac.target->writable());
  mac.target_slot = static_cast<std::size_t>(target_rel);
  mac.target_data = mac.target->value_array_mut();
  mac.scale = scale;
  for (index_t f : factor_rels) {
    BERNOULLI_CHECK(f >= 0 && f < static_cast<index_t>(q.relations.size()));
    LinkedMac::Factor fac;
    fac.view = q.relations[static_cast<std::size_t>(f)].view;
    fac.slot = static_cast<std::size_t>(f);
    fac.data = fac.view->value_array();
    mac.factors.push_back(fac);
  }
  return mac;
}

const LinkedMac::Factor* overlapping_factor(const LinkedMac& mac) {
  // std::less gives the pointer comparison a defined total order across
  // unrelated arrays.
  const std::less<const value_t*> lt;
  const std::span<const value_t> t = mac.target_data;
  for (const LinkedMac::Factor& f : mac.factors) {
    if (t.empty() || f.data.empty()) continue;
    if (!(lt(&t.back(), f.data.data()) || lt(&f.data.back(), t.data())))
      return &f;
  }
  return nullptr;
}

LinkedRunner::LinkedRunner(LinkedPlan lp) : lp_(std::move(lp)) {
  const Query& q = *lp_.query;
  vars_.assign(q.vars.size(), -1);
  pos_.assign(static_cast<std::size_t>(lp_.pos_slots), -1);
  leaf_.assign(q.relations.size(), -1);
  frames_.resize(lp_.levels.size());
  for (std::size_t d = 0; d < lp_.levels.size(); ++d) {
    frames_[d].cursors.resize(lp_.levels[d].drivers.size());
    frames_[d].bufs.resize(lp_.levels[d].drivers.size());
  }
  rec_.begin(lp_.levels.size());
  if (lp_.footprint.exact) {
    rec_.model_bytes = lp_.footprint.total_bytes();
    rec_.model_flops = lp_.footprint.flops;
  }
}

}  // namespace bernoulli::compiler
