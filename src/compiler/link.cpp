#include "compiler/link.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <string>

#include "compiler/fused_lowering.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"

namespace bernoulli::compiler {

using relation::Query;

namespace {

int find_var_slot(const Query& q, const std::string& v) {
  auto it = std::find(q.vars.begin(), q.vars.end(), v);
  BERNOULLI_CHECK_MSG(it != q.vars.end(), "unbound variable " << v);
  return static_cast<int>(it - q.vars.begin());
}

// Widens `r` by ind[lo, hi).
void widen(IndexRange& r, const index_t* ind, index_t lo, index_t hi) {
  if (lo >= hi) return;
  index_t mn = ind[lo];
  index_t mx = ind[lo];
  for (index_t k = lo + 1; k < hi; ++k) {
    mn = std::min(mn, ind[k]);
    mx = std::max(mx, ind[k]);
  }
  if (r.empty()) {
    r = {mn, mx};
  } else {
    r.mn = std::min(r.mn, mn);
    r.mx = std::max(r.mx, mx);
  }
}

// Whether level `depth` of `v` holds any position: a depth-first walk
// from the root through the cursors, stopping at the first one found.
bool holds_positions(const relation::RelationView& v, index_t depth,
                     index_t d = 0, index_t parent = 0) {
  relation::Cursor c;
  relation::CursorBuffer buf;
  v.level(d).begin_cursor(parent, c, buf);
  for (; c.valid(); c.advance())
    if (d == depth || holds_positions(v, depth, d + 1, c.pos())) return true;
  return false;
}

// The indices a flat driver's cursors enumerate over every parent its
// relation holds, walking the stored structure as descriptor_cursor does:
// per-parent counts bound the lane walks (SELL-C-σ and ELLPACK padding is
// never read), a blocked level expands each stored block to its c lanes,
// and a dense or list level — the same children under every parent —
// enumerates nothing when no parent exists.
IndexRange driver_range(const relation::RelationView& v, index_t depth,
                        const relation::LevelDescriptor& d) {
  using K = relation::LevelDescriptor::Kind;
  IndexRange r;
  const bool has_parent = depth == 0 || holds_positions(v, depth - 1);
  switch (d.kind) {
    case K::kDense:
      if (has_parent && d.extent > 0) r = {0, d.extent - 1};
      break;
    case K::kList:
      if (has_parent) widen(r, d.ind, 0, d.ind_len);
      break;
    case K::kCompressed:
      if (d.ptr_len >= 2) widen(r, d.ind, d.ptr[0], d.ptr[d.ptr_len - 1]);
      break;
    case K::kSingleton:
      widen(r, d.map, 0, d.map_len);
      break;
    case K::kBlocked:
      if (d.ptr_len >= 2) widen(r, d.ind, d.ptr[0], d.ptr[d.ptr_len - 1]);
      if (!r.empty()) r = {r.mn * d.block_c, r.mx * d.block_c + d.block_c - 1};
      break;
    case K::kStrided:
    case K::kOffsets:
    case K::kSliced:
      for (index_t p = 0; p < d.len_len; ++p)
        for (index_t k = 0; k < d.len[p]; ++k) {
          const index_t pos = d.kind == K::kStrided  ? p + k * d.stride
                              : d.kind == K::kOffsets ? d.off[k] + p
                                                      : d.off[p] + k * d.chunk;
          widen(r, d.ind, pos, pos + 1);
        }
      break;
    case K::kOpaque:
      break;
  }
  return r;
}

// Link-time always-hit proof for one level (see LinkedLevel::
// proved_all_hit). A probe searching by an outer variable — B[i,j] probed
// at i's level for its j child — sees a different index than the driver
// enumerates, so it is never proved here.
bool prove_all_hit(const LinkedLevel& lv) {
  using SK = relation::SearchSpec::Kind;
  if (lv.method != JoinMethod::kEnumerate ||
      lv.drivers[0].desc.kind == relation::LevelDescriptor::Kind::kOpaque)
    return false;
  for (const LinkedProbe& pr : lv.probes) {
    if (pr.insert_on_miss || pr.var_slot != lv.var_slot) return false;
    if (pr.search.kind != SK::kIdentity && pr.search.kind != SK::kAffine)
      return false;
    if (!lv.range.within(pr.search.extent)) return false;
  }
  return true;
}

const relation::BoundRelation& rel_of(const LinkedPlan& lp, index_t rel) {
  return lp.query->relations[static_cast<std::size_t>(rel)];
}

const std::string& var_of(const LinkedPlan& lp, const LinkedLevel& lv) {
  return lp.query->vars[static_cast<std::size_t>(lv.var_slot)];
}

// Owner-computes shape (see LinkedPlan::owner_computes): a two-level
// enumerate plan over a dense outer range whose leaf walks sorted
// compressed segments of the outer variable, both levels proved all-hit,
// and every written relation a vector of the leaf variable probed there.
bool owner_computes_shape(const LinkedPlan& lp) {
  using K = relation::LevelDescriptor::Kind;
  if (lp.levels.size() != 2) return false;
  for (const LinkedLevel& lv : lp.levels)
    if (!lv.proved_all_hit) return false;
  const LinkedLevel& outer = lp.levels[0];
  const LinkedLevel& leaf = lp.levels[1];
  if (outer.drivers[0].desc.kind != K::kDense) return false;
  for (const LinkedProbe& pr : outer.probes)
    if (pr.access.depth != 0) return false;
  const LinkedAccess& ld = leaf.drivers[0];
  if (ld.desc.kind != K::kCompressed || !ld.desc.sorted || ld.depth != 1 ||
      rel_of(lp, ld.rel).vars[0] != var_of(lp, outer))
    return false;
  for (std::size_t r = 0; r < lp.query->relations.size(); ++r) {
    const auto& rel = lp.query->relations[r];
    if (!rel.writes) continue;
    if (rel.vars.size() != 1 || rel.vars[0] != var_of(lp, leaf) ||
        std::none_of(leaf.probes.begin(), leaf.probes.end(),
                     [&](const LinkedProbe& pr) {
                       return pr.access.rel == static_cast<index_t>(r);
                     }))
      return false;
  }
  return true;
}

// The parallel verdict (see LinkedPlan::parallel_ok): sets parallel_ok,
// owner_computes and parallel_note.
void decide_parallel(LinkedPlan& lp) {
  auto verdict = [&lp](bool ok, std::string note, bool owner = false) {
    lp.parallel_ok = ok;
    lp.owner_computes = owner;
    lp.parallel_note = std::move(note);
  };
  if (lp.levels.empty()) return verdict(false, "plan has no levels");
  const LinkedLevel& outer = lp.levels[0];
  const std::string& outer_var = var_of(lp, outer);
  if (outer.method == JoinMethod::kMerge)
    return verdict(false, "outer level " + outer_var +
                              " is a merge join (chunking the k-finger "
                              "sweep would change merge_steps)");
  // Scan every access the plan touches for mid-run mutation or stateful
  // virtual search; either makes concurrent frames unsafe.
  auto inserts = [&](const LinkedAccess& a) -> std::string {
    const auto& rel = rel_of(lp, a.rel);
    if (rel.writes && a.level->insertable())
      return rel.view->name() + " inserts on miss at " +
             rel.vars[static_cast<std::size_t>(a.depth)] +
             " (fill-in grows shared storage)";
    return "";
  };
  for (const LinkedLevel& lv : lp.levels) {
    for (const LinkedAccess& a : lv.drivers)
      if (std::string why = inserts(a); !why.empty())
        return verdict(false, std::move(why));
    for (const LinkedProbe& pr : lv.probes) {
      if (std::string why = inserts(pr.access); !why.empty())
        return verdict(false, std::move(why));
      if (pr.search.kind == relation::SearchSpec::Kind::kVirtual) {
        const auto& rel = rel_of(lp, pr.access.rel);
        return verdict(false,
                       rel.view->name() + " probes " +
                           rel.vars[static_cast<std::size_t>(pr.access.depth)] +
                           " through a stateful virtual search");
      }
    }
  }
  // Disjoint output rows: every written relation must bind the outer
  // variable at its root level, so distinct outer bindings land in
  // disjoint storage segments and no cross-thread reduction is needed.
  for (const auto& rel : lp.query->relations) {
    if (!rel.writes) continue;
    if (rel.vars.empty() || rel.vars[0] != outer_var) {
      // The output is indexed by an inner variable: chunking the outer
      // level would race on it. A column walk into a vector of the leaf
      // variable can still split the OUTPUT instead (owner-computes).
      if (owner_computes_shape(lp))
        return verdict(true,
                       "owner-computes — rows of " + rel.view->name() +
                           " split across T threads; each walks its segment "
                           "of every column",
                       true);
      return verdict(false, "output " + rel.view->name() +
                                " rows are not partitioned by the outer "
                                "variable " +
                                outer_var);
    }
  }
  verdict(true, "outer level " + outer_var +
                    " chunked across threads (disjoint output rows)");
}

// Walks the linked levels and derives the static data-movement footprint
// (see PlanFootprint).
PlanFootprint derive_footprint(const LinkedPlan& lp) {
  const Query& q = *lp.query;
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
  // every enumeration count to be a static function of the descriptors:
  // flat enumerate levels, always-hit arithmetic probes, segment levels
  // invoked once per parent. (rel, depth) pairs bound by a DRIVER are
  // recorded so segmented / per-parent-count levels can require
  // once-per-parent coverage (a parent bound by a probe could repeat or
  // skip segments).
  std::vector<std::vector<bool>> driver_bound(q.relations.size());
  for (std::size_t r = 0; r < q.relations.size(); ++r)
    driver_bound[r].assign(q.relations[r].vars.size(), false);

  using K = relation::LevelDescriptor::Kind;
  long long produced = 1;  // root invocation
  for (const LinkedLevel& lv : lp.levels) {
    const std::string& var = var_of(lp, lv);
    const long long parents = produced;  // frames opening this level
    if (lv.method != JoinMethod::kEnumerate)
      return inexact("level " + var +
                     " is a merge join (enumeration count is data-dependent "
                     "on finger interleaving)");
    const LinkedAccess& a = lv.drivers[0];
    const relation::LevelDescriptor& es = a.desc;
    const std::string name = rel_of(lp, a.rel).view->name();
    PlanFootprint::Operand& op = fp.operands[static_cast<std::size_t>(a.rel)];
    const bool root_parent = a.depth == 0;
    const bool parent_covered =
        root_parent ||
        driver_bound[static_cast<std::size_t>(a.rel)]
                    [static_cast<std::size_t>(a.depth) - 1];
    long long enumerated = 0;
    switch (es.kind) {
      case K::kOpaque:
        return inexact(name + " level " + var +
                       " has no flat enumeration shape");
      case K::kDense:
        enumerated = produced * es.extent;
        break;
      case K::kList:
        enumerated = produced * es.ind_len;
        op.index_bytes += enumerated * szi;  // ind[p] per element
        break;
      case K::kSingleton:
        enumerated = produced;               // the single child
        op.index_bytes += produced * szi;    // map[parent] per invocation
        break;
      case K::kCompressed: {
        if (root_parent) {
          if (es.ptr_len < 2)
            return inexact(name + " segmented level " + var +
                           " has an empty ptr array");
          enumerated = produced * (es.ptr[1] - es.ptr[0]);
        } else {
          if (!parent_covered || produced != es.ptr_len - 1)
            return inexact(name + " segmented level " + var +
                           " is not invoked exactly once per segment");
          enumerated = es.ptr[es.ptr_len - 1] - es.ptr[0];
        }
        op.index_bytes += enumerated * szi;      // ind[p] per element
        op.index_bytes += 2 * produced * szi;    // segment bounds
        break;
      }
      case K::kStrided:
      case K::kOffsets: {
        long long count = 0;
        if (root_parent) {
          if (es.len_len < 1)
            return inexact(name + " level " + var +
                           " has an empty len array");
          count = produced * es.len[0];
        } else {
          if (!parent_covered || produced != es.len_len)
            return inexact(name + " level " + var +
                           " is not invoked exactly once per parent");
          for (index_t p = 0; p < es.len_len; ++p) count += es.len[p];
        }
        enumerated = count;
        op.index_bytes += produced * szi;    // len[parent] per invocation
        op.index_bytes += enumerated * szi;  // ind[pos] per element
        if (es.kind == K::kOffsets)
          op.index_bytes += enumerated * szi;  // off[k] per element
        break;
      }
      case K::kBlocked: {
        // Block rows group block_r parents; each parent row re-walks its
        // block row's (ptr[br+1]-ptr[br]) blocks, c lanes per block. Fill
        // zeros inside stored blocks ARE enumerated, so no padding here.
        if (es.ptr_len < 2)
          return inexact(name + " blocked level " + var +
                         " has an empty block ptr array");
        if (root_parent) {
          enumerated =
              produced * (es.ptr[1] - es.ptr[0]) * es.block_c;
        } else {
          if (!parent_covered ||
              produced != static_cast<long long>(es.block_r) *
                              (es.ptr_len - 1))
            return inexact(name + " blocked level " + var +
                           " is not invoked once per row of every block row");
          enumerated = static_cast<long long>(es.ptr[es.ptr_len - 1] -
                                              es.ptr[0]) *
                       es.block_r * es.block_c;
        }
        op.index_bytes += 2 * produced * szi;    // block-row bounds
        op.index_bytes += enumerated * szi;      // ind[b] per lane visit
        break;
      }
      case K::kSliced: {
        // Chunk-sliced (SELL-C-σ): each parent row walks len[parent]
        // lane-strided slots starting at off[parent]. Padding lanes past a
        // row's length are stored but never enumerated — booked as
        // padding_bytes, not traffic.
        long long count = 0;
        if (root_parent) {
          if (es.len_len < 1)
            return inexact(name + " sliced level " + var +
                           " has an empty len array");
          count = produced * es.len[0];
        } else {
          if (!parent_covered || produced != es.len_len)
            return inexact(name + " sliced level " + var +
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
    for (const LinkedProbe& pr : lv.probes) {
      const auto& prel = rel_of(lp, pr.access.rel);
      const relation::SearchSpec& ss = pr.search;
      if (pr.insert_on_miss)
        return inexact(prel.view->name() +
                       " inserts on miss (fill-in count is data-dependent)");
      if (ss.kind != relation::SearchSpec::Kind::kIdentity &&
          ss.kind != relation::SearchSpec::Kind::kAffine)
        return inexact(prel.view->name() + " probe at " + var +
                       " is not an always-hit arithmetic search");
      // A filtering identity/affine probe rejects indices outside
      // [0, ss.extent) — data-dependent in general, but exact when the
      // driver's stored range fits the accepting window (the iteration-
      // space relation I always filters, so CSR/CCS SpMV depends on this
      // proof).
      if (prel.filters && !lv.range.within(ss.extent))
        return inexact(prel.view->name() + " filter at " + var +
                       " may reject (driver enumerates [" +
                       std::to_string(lv.range.mn) + ", " +
                       std::to_string(lv.range.mx) + "], probe accepts [0, " +
                       std::to_string(ss.extent) + "))");
      // Identity/affine probes are pure arithmetic: no index bytes.
      //
      // A single frame enumerating a dense range [0, extent) and probing
      // an identity level of the same extent visits each position exactly
      // once — the bijection a driver would give. Mark the probed
      // (rel, depth) covered so a segmented child below it can still prove
      // once-per-segment (CSR/CCS SpMV drives rows from the iteration
      // space and identity-probes the matrix's row level).
      if (parents == 1 && ss.kind == relation::SearchSpec::Kind::kIdentity &&
          es.kind == K::kDense && es.extent == ss.extent)
        driver_bound[static_cast<std::size_t>(pr.access.rel)]
                    [static_cast<std::size_t>(pr.access.depth)] = true;
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
  fp.note = "exact: " + std::to_string(lp.levels.size()) + " flat levels, " +
            std::to_string(fp.leaf_tuples) + " leaf tuples";
  return fp;
}

// Whether level 0 writes position slot `slot`. In a fused plan every slot
// it writes holds the outer counter.
bool at_level0(const LinkedLevel& lv0, int slot) {
  return slot == lv0.drivers[0].pos_slot ||
         std::any_of(lv0.probes.begin(), lv0.probes.end(),
                     [slot](const LinkedProbe& pr) {
                       return pr.access.pos_slot == slot;
                     });
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
    const LinkedAccess& d0 = ll.drivers[0];
    if (ll.method == JoinMethod::kEnumerate &&
        d0.desc.kind != relation::LevelDescriptor::Kind::kOpaque)
      ll.range = driver_range(*rel_of(lp, d0.rel).view, d0.depth, d0.desc);
    ll.proved_all_hit = prove_all_hit(ll);
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
  decide_parallel(lp);
  lp.footprint = derive_footprint(lp);
  lp.sink = &support::run_sink(lp.levels.size());
  return lp;
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

const char* leaf_form_name(LeafForm form) {
  switch (form) {
    case LeafForm::kPerElement: return "per-element";
    case LeafForm::kAccumulator: return "accumulator";
    case LeafForm::kHoistedFactor: return "hoisted-factor";
    case LeafForm::kBlockRow: return "block-row";
  }
  return "?";
}

LeafForm leaf_form(const LinkedPlan& lp, const LinkedMac& mac,
                   std::string* note) {
  using K = relation::LevelDescriptor::Kind;
  // `why` runs only when a note was asked for.
  auto per_element = [note](const auto& why) {
    if (note != nullptr) *note = "per-element leaf: " + why();
    return LeafForm::kPerElement;
  };
  auto name = [&lp](index_t rel) { return rel_of(lp, rel).view->name(); };
  if (mac.target_data.empty())
    return per_element(
        [&] { return mac.target->name() + " exposes no flat value array"; });
  for (const LinkedMac::Factor& f : mac.factors)
    if (f.data.empty())
      return per_element(
          [&] { return f.view->name() + " exposes no flat value array"; });
  if (lp.levels.size() != 2)
    return per_element([&] {
      return "the fused forms cover two-level plans, this one has " +
             std::to_string(lp.levels.size());
    });
  const LinkedLevel& lv0 = lp.levels[0];
  const LinkedLevel& lv1 = lp.levels[1];
  if (lv0.drivers[0].desc.kind != K::kDense)
    return per_element([] { return std::string("level 0 is not a dense range"); });
  for (std::size_t d = 0; d < 2; ++d)
    if (!lp.levels[d].proved_all_hit)
      return per_element([d] {
        return "a probe at level " + std::to_string(d) + " may miss";
      });
  for (const LinkedProbe& pr : lv0.probes)
    if (pr.access.parent_slot >= 0)
      return per_element([&] {
        return "the level-0 probe of " + name(pr.access.rel) +
               " is not rooted";
      });
  const LinkedAccess& leaf = lv1.drivers[0];
  if (leaf.desc.kind != K::kCompressed && leaf.desc.kind != K::kSliced &&
      leaf.desc.kind != K::kBlocked)
    return per_element([&] {
      return name(leaf.rel) + "'s leaf is not compressed, sliced or blocked";
    });
  if (leaf.parent_slot < 0 || !at_level0(lv0, leaf.parent_slot))
    return per_element(
        [&] { return name(leaf.rel) + "'s leaf does not hang off level 0"; });
  for (const LinkedProbe& pr : lv1.probes)
    if (pr.search.kind == relation::SearchSpec::Kind::kAffine &&
        pr.access.parent_slot >= 0 && !at_level0(lv0, pr.access.parent_slot))
      return per_element([&] {
        return "the leaf probe of " + name(pr.access.rel) +
               " takes its parent from the leaf level";
      });
  if (const LinkedMac::Factor* f = overlapping_factor(mac))
    return per_element([&] {
      return "target " + mac.target->name() + " overlaps factor " +
             f->view->name();
    });
  if (at_level0(lv0, lp.leaf_slot[mac.target_slot])) {
    const bool blocked = leaf.desc.kind == K::kBlocked;
    const LeafForm form = blocked ? LeafForm::kBlockRow : LeafForm::kAccumulator;
    if (note != nullptr)
      *note = std::string(leaf_form_name(form)) + " leaf: " +
              mac.target->name() + " accumulates in registers per " +
              (blocked ? "block row" : "row");
    return form;
  }
  for (const LinkedMac::Factor& f : mac.factors)
    if (at_level0(lv0, lp.leaf_slot[f.slot])) {
      if (note != nullptr)
        *note = "hoisted-factor leaf: " + f.view->name() +
                " is loaded once per row";
      return LeafForm::kHoistedFactor;
    }
  return per_element(
      [] { return std::string("no operand is bound at level 0"); });
}

int fused_drain_kind(const LinkedPlan& lp) {
  using K = relation::LevelDescriptor::Kind;
  const K kind = lp.levels.back().drivers[0].desc.kind;
  return kind == K::kBlocked  ? support::kProfBlocked
         : kind == K::kSliced ? support::kProfSliced
                              : support::kProfBulk;
}

void lower_fused(const LinkedPlan& lp, const LinkedMac& mac, FusedLowering& f) {
  using K = relation::LevelDescriptor::Kind;
  const LinkedLevel& lv0 = lp.levels[0];
  const LinkedLevel& lv1 = lp.levels[1];
  const relation::LevelDescriptor& es = lv1.drivers[0].desc;
  f.rows = lv0.drivers[0].desc.extent;
  f.leaf = {es.kind == K::kBlocked  ? FL_BLOCKED
            : es.kind == K::kSliced ? FL_SLICED
                                    : FL_COMPRESSED,
            es.ptr, es.ptr + 1, es.ind, es.off, es.len, es.chunk, es.ptr,
            es.block_r, es.block_c};
  // A position reads k (bound at level 0), the leaf position (the leaf
  // driver's own) or the leaf index (an identity/affine leaf probe, whose
  // parent is rooted or at level 0, so its parent position is k).
  auto lower = [&](std::size_t rel_slot, const value_t* data) {
    fl_op op{data, 0, 0, 0, 0};
    const int s = lp.leaf_slot[rel_slot];
    if (s == lv1.drivers[0].pos_slot) {
      op.mp = -1;
      return op;
    }
    for (const LinkedProbe& pr : lv1.probes) {
      if (pr.access.pos_slot != s) continue;
      op.mi = -1;
      if (pr.search.kind != relation::SearchSpec::Kind::kIdentity &&
          pr.access.parent_slot >= 0)
        op.step = pr.search.stride;
      return op;
    }
    BERNOULLI_CHECK(at_level0(lv0, s));
    op.step = 1;
    return op;
  };
  // Positions form in int: the last row's base must fit.
  auto fits = [&](const fl_op& op) {
    checked_index(static_cast<long long>(std::max<index_t>(f.rows - 1, 0)) *
                      op.step,
                  "operand base at the last outer row");
    return op;
  };
  f.target = fits(lower(mac.target_slot, nullptr));
  f.factors.clear();
  for (const LinkedMac::Factor& fa : mac.factors)
    f.factors.push_back(fits(lower(fa.slot, fa.data.data())));
  f.acc = (f.target.mp | f.target.mi) == 0;
}

LinkedRunner::LinkedRunner(LinkedPlan lp)
    : lp_(std::move(lp)), fused_(std::make_unique<FusedLowering>()) {
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

LinkedRunner::LinkedRunner(LinkedRunner&&) noexcept = default;
LinkedRunner& LinkedRunner::operator=(LinkedRunner&&) noexcept = default;
LinkedRunner::~LinkedRunner() = default;

}  // namespace bernoulli::compiler
