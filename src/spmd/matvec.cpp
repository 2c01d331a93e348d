#include "spmd/matvec.hpp"

#include <algorithm>
#include <unordered_map>

#include "compiler/executor.hpp"
#include "compiler/link.hpp"
#include "compiler/planner.hpp"
#include "distrib/chaos.hpp"
#include "relation/array_views.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace bernoulli::spmd {

using distrib::Distribution;
using distrib::OwnerLocal;
using formats::Csr;

std::string variant_name(Variant v) {
  switch (v) {
    case Variant::kBlockSolve: return "BlockSolve";
    case Variant::kBernoulliMixed: return "Bernoulli-Mixed";
    case Variant::kBernoulli: return "Bernoulli";
    case Variant::kIndirectMixed: return "Indirect-Mixed";
    case Variant::kIndirect: return "Indirect";
  }
  return "?";
}

bool variant_uses_chaos(Variant v) {
  return v == Variant::kIndirectMixed || v == Variant::kIndirect;
}

bool variant_is_naive(Variant v) {
  return v == Variant::kBernoulli || v == Variant::kIndirect;
}

namespace {

constexpr int kRequestTag = 9201;

// Local fragment of the (replicated) global matrix: my rows, renumbered to
// local offsets; columns stay global. Pure data layout — every variant
// starts from this, so it is outside the timed inspector window.
Csr extract_fragment(const Csr& a, const Distribution& rows, int me) {
  auto mine = rows.owned_indices(me);
  std::vector<index_t> rowptr(mine.size() + 1, 0);
  for (std::size_t r = 0; r < mine.size(); ++r)
    rowptr[r + 1] =
        rowptr[r] + static_cast<index_t>(a.row_cols(mine[r]).size());
  std::vector<index_t> colind(static_cast<std::size_t>(rowptr.back()));
  std::vector<value_t> vals(colind.size());
  for (std::size_t r = 0; r < mine.size(); ++r) {
    auto cols = a.row_cols(mine[r]);
    auto v = a.row_vals(mine[r]);
    std::copy(cols.begin(), cols.end(), colind.begin() + rowptr[r]);
    std::copy(v.begin(), v.end(), vals.begin() + rowptr[r]);
  }
  return Csr(static_cast<index_t>(mine.size()), a.cols(), std::move(rowptr),
             std::move(colind), std::move(vals));
}

// Sizes a CSR part of at most `nnz` entries over `m` rows before it is
// filled by push_back, so no reallocation chain leaves freed copies behind.
void reserve_split(index_t m, index_t nnz, std::vector<index_t>& ptr,
                   std::vector<index_t>& ind, std::vector<value_t>& vals) {
  ptr.reserve(static_cast<std::size_t>(m) + 1);
  ind.reserve(static_cast<std::size_t>(nnz));
  vals.reserve(static_cast<std::size_t>(nnz));
}

// Used(p) computed through the RELATIONAL machinery (paper Eq. 21): the
// compiled inspectors evaluate the query
//   Used(j) = pi_j sigma_NZ(A(i', j))
// as a compiled query — planned, linked to flat cursors, and run on the
// linked engine with a per-tuple action. The per-tuple action call is the
// honest price of generated-from-global-spec code.
std::vector<index_t> used_columns_relational(const Csr& frag) {
  relation::CsrView aview("A", frag);
  relation::IntervalView iview("I", {frag.rows(), frag.cols()});
  relation::Query q;
  q.vars = {"i", "j"};
  q.relations.push_back({&iview, {"i", "j"}, true, false, true});
  q.relations.push_back({&aview, {"i", "j"}, true, false, false});

  // Deduplicate by sort+unique: work ~ fragment size, NOT global size —
  // an O(N_global) bitmap would make even the leanest inspector scale with
  // the total problem under weak scaling.
  std::vector<index_t> used;
  used.reserve(static_cast<std::size_t>(frag.nnz()));
  const compiler::Plan plan = compiler::plan_query(q);
  compiler::LinkedRunner runner(compiler::link_plan(plan, q));
  const std::size_t jslot = 1;  // q.vars order
  runner.run([&](const compiler::Env& env) {
    used.push_back(env.var_value[jslot]);
  });
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

// Used(p) the hand-written way: one direct pass over the column indices.
std::vector<index_t> used_columns_direct(const Csr& frag) {
  std::vector<index_t> used(frag.colind().begin(), frag.colind().end());
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

}  // namespace

namespace {

// One pass of the naive (fully data-parallel) kernel: every x reference
// resolves through the global-to-slot translation.
void naive_pass(const formats::Csr& a, std::span<const index_t> xtrans,
                ConstVectorView x_full, VectorView y, bool accumulate) {
  auto rowptr = a.rowptr();
  auto colind = a.colind();
  auto vals = a.vals();
  for (index_t i = 0; i < a.rows(); ++i) {
    value_t sum = 0.0;
    const index_t end = rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t k = rowptr[static_cast<std::size_t>(i)]; k < end; ++k)
      sum += vals[static_cast<std::size_t>(k)] *
             x_full[static_cast<std::size_t>(xtrans[static_cast<std::size_t>(
                 colind[static_cast<std::size_t>(k)])])];
    if (accumulate)
      y[static_cast<std::size_t>(i)] += sum;
    else
      y[static_cast<std::size_t>(i)] = sum;
  }
}

}  // namespace

void DistSpmv::compute_local(ConstVectorView x_full, VectorView y) const {
  if (variant_is_naive(variant))
    naive_pass(a_local, xtrans, x_full, y, /*accumulate=*/false);
  else
    // The local part references only owned x (its width is `owned`).
    spmv(a_local, x_full.first(static_cast<std::size_t>(sched.owned)), y);
}

void DistSpmv::compute_nonlocal(ConstVectorView x_full, VectorView y) const {
  if (variant_is_naive(variant))
    naive_pass(a_nonlocal, xtrans, x_full, y, /*accumulate=*/true);
  else
    spmv_add(a_nonlocal, x_full, y);
}

void DistSpmv::apply(runtime::Process& p, VectorView x_full, VectorView y,
                     int tag) const {
  support::PhaseScope phase("executor");
  support::TraceSpan span("spmv.apply", "spmd");
  span.arg("variant", variant_name(variant));
  BERNOULLI_CHECK(static_cast<index_t>(x_full.size()) == sched.full_size());
  BERNOULLI_CHECK(static_cast<index_t>(y.size()) == sched.owned);

  if (variant == Variant::kBlockSolve) {
    // Hand-written overlap: put the values on the wire, compute the local
    // product while they travel, then finish with the non-local part.
    sched.post(p, x_full, tag);
    compute_local(x_full, y);
    if (charge.local >= 0) p.charge_seconds(charge.local);
    sched.complete(p, x_full, tag);
    compute_nonlocal(x_full, y);
    if (charge.nonlocal >= 0) p.charge_seconds(charge.nonlocal);
    return;
  }

  // Compiler-generated executors (mixed and naive): exchange first, then
  // compute — the paper notes the generated code is "simpler" (no
  // overlap), costing the 2-4% of Table 2.
  sched.exchange(p, x_full, tag);
  compute_local(x_full, y);
  compute_nonlocal(x_full, y);
  if (charge.local >= 0) p.charge_seconds(charge.local + charge.nonlocal);
}

DistSpmv build_dist_spmv(runtime::Process& p, const Csr& a,
                         const Distribution& rows, Variant variant) {
  BERNOULLI_CHECK(a.rows() == a.cols());
  BERNOULLI_CHECK(rows.global_size() == a.rows());
  const int P = p.nprocs();
  const int me = p.rank();
  const index_t N = a.cols();

  DistSpmv out;
  out.variant = variant;
  const bool naive = variant_is_naive(variant);

  // ---- Untimed preparation (matrix assembly / storage layout) ----------
  // The paper's inspector/executor split charges data-structure assembly
  // to matrix setup: the BlockSolve library *stores* A split into local
  // and non-local parts with local indices, and every implementation gets
  // its fragment for free. What Table 3 contrasts is the work needed to
  // build communication sets and index translations.
  Csr frag = extract_fragment(a, rows, me);
  const index_t m = frag.rows();

  auto my_rows = rows.owned_indices(me);
  std::unordered_map<index_t, index_t> my_local;
  my_local.reserve(my_rows.size());
  for (std::size_t k = 0; k < my_rows.size(); ++k)
    my_local.emplace(my_rows[k], static_cast<index_t>(k));
  auto is_mine = [&](index_t j) { return my_local.count(j) != 0; };

  Csr frag_snl;  // mixed variants: the A_SNL storage (global columns)
  if (!naive) {
    // a_local = A_D + A_SL with pre-localized columns (library storage),
    // frag_snl = A_SNL with global columns awaiting translation.
    // Either part holds at most the fragment's nnz; capacity the split
    // leaves unused is never touched and costs no resident memory.
    std::vector<index_t> lp{0}, lc, sp{0}, sc;
    std::vector<value_t> lv, sv;
    reserve_split(m, frag.nnz(), lp, lc, lv);
    reserve_split(m, frag.nnz(), sp, sc, sv);
    for (index_t i = 0; i < m; ++i) {
      auto cols = frag.row_cols(i);
      auto vals = frag.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        auto mine = my_local.find(cols[k]);
        if (mine != my_local.end()) {
          lc.push_back(mine->second);
          lv.push_back(vals[k]);
        } else {
          sc.push_back(cols[k]);
          sv.push_back(vals[k]);
        }
      }
      lp.push_back(static_cast<index_t>(lc.size()));
      sp.push_back(static_cast<index_t>(sc.size()));
    }
    // Local offsets ascend with global indices inside one owner for every
    // distribution in distrib/, so rows stay sorted; assert via validate.
    out.a_local = Csr(m, m, std::move(lp), std::move(lc), std::move(lv));
    frag_snl = Csr(m, N, std::move(sp), std::move(sc), std::move(sv));
  }

  p.barrier();  // exclude prep skew from the timed window
  support::PhaseScope phase("inspector");
  support::TraceSpan insp_span("inspector", "spmd");
  insp_span.arg("variant", variant_name(variant));
  const double inspector_t0 = p.virtual_time();

  // ---- Inspector proper -------------------------------------------------
  // 1. Used(p): which global x indices must be resolved.
  //    - naive: EVERY referenced index, via the relational query over the
  //      whole fragment (work ~ local problem size);
  //    - Bernoulli-Mixed / Indirect-Mixed: relational query over A_SNL
  //      only (work ~ boundary);
  //    - BlockSolve: direct pass over A_SNL.
  std::vector<index_t> used;
  {
    support::TraceSpan step("inspector.used", "spmd");
    p.solo([&] {
      if (variant == Variant::kBlockSolve) {
        used = used_columns_direct(frag_snl);
      } else if (naive) {
        // The generated fully-data-parallel inspector is also compiled code
        // (kernel-library transcription of the emitted query); what makes
        // it an order of magnitude more expensive than the mixed inspector
        // is its reference VOLUME — it enumerates every reference in the
        // fragment (plus the O(N) translation below), not just A_SNL's.
        used = used_columns_direct(frag);
      } else {
        used = used_columns_relational(frag_snl);
      }
    });
    step.arg("used", static_cast<long long>(used.size()));
  }

  // 2. Ownership of the used indices: local lookups against the
  //    replicated distribution relation, or collective queries against the
  //    Chaos distributed translation table (build + query all-to-alls).
  std::vector<OwnerLocal> owners(used.size());
  {
    support::TraceSpan step("inspector.ownership", "spmd");
    step.arg("chaos", variant_uses_chaos(variant));
    if (variant_uses_chaos(variant)) {
      distrib::ChaosTranslationTable table(p, N, my_rows);
      owners = table.query(p, used);
    } else {
      for (std::size_t k = 0; k < used.size(); ++k)
        owners[k] = rows.owner_local(used[k]);
    }
  }

  // 3. Ghost layout: non-local used indices grouped by owner (ascending
  //    global index within each owner — `used` is already sorted).
  out.sched.nprocs = P;
  out.sched.owned = m;
  out.sched.send_local.assign(static_cast<std::size_t>(P), {});
  out.sched.recv_count.assign(static_cast<std::size_t>(P), 0);
  out.sched.ghost_base.assign(static_cast<std::size_t>(P), 0);

  std::vector<std::vector<index_t>> need(static_cast<std::size_t>(P));
  std::unordered_map<index_t, index_t> slot_of;  // global j -> x_full slot
  {
    support::TraceSpan step("inspector.ghost_layout", "spmd");
    p.solo([&] {
      for (std::size_t k = 0; k < used.size(); ++k) {
        if (owners[k].owner == me) continue;  // naive variants: local j here
        need[static_cast<std::size_t>(owners[k].owner)].push_back(used[k]);
      }
      index_t next_slot = m;
      for (int q = 0; q < P; ++q) {
        out.sched.ghost_base[static_cast<std::size_t>(q)] = next_slot;
        out.sched.recv_count[static_cast<std::size_t>(q)] =
            static_cast<index_t>(need[static_cast<std::size_t>(q)].size());
        for (index_t j : need[static_cast<std::size_t>(q)])
          slot_of.emplace(j, next_slot++);
      }
      out.sched.ghosts = next_slot - m;
    });
    step.arg("ghosts", static_cast<long long>(out.sched.ghosts));
  }

  // 4. Tell each owner what we need (RecvInd -> their send lists).
  {
    support::TraceSpan step("inspector.requests", "spmd");
    auto requests = p.alltoallv(need, kRequestTag);
    p.solo([&] {
      for (int q = 0; q < P; ++q) {
        auto& list = out.sched.send_local[static_cast<std::size_t>(q)];
        list.reserve(requests[static_cast<std::size_t>(q)].size());
        for (index_t j : requests[static_cast<std::size_t>(q)]) {
          auto it = my_local.find(j);
          BERNOULLI_CHECK_MSG(it != my_local.end(),
                              "rank " << q << " requested " << j
                                      << " which rank " << me
                                      << " does not own");
          list.push_back(it->second);
        }
      }
      out.sched.validate();
    });
  }

  // 5. Index-translation application.
  support::TraceSpan translate_step("inspector.translate", "spmd");
  p.solo([&] {
  if (naive) {
    // The fully data-parallel code discovers locality per reference: build
    // the full global->slot translation (O(N) memory and work per rank)
    // and split the three products by looking every column up — the
    // "redundant work to discover that most references are local".
    out.xtrans.assign(static_cast<std::size_t>(N), -1);
    for (index_t j = 0; j < N; ++j) {
      auto mine = my_local.find(j);
      if (mine != my_local.end()) {
        out.xtrans[static_cast<std::size_t>(j)] = mine->second;
      } else {
        auto ghost = slot_of.find(j);
        if (ghost != slot_of.end())
          out.xtrans[static_cast<std::size_t>(j)] = ghost->second;
      }
    }
    std::vector<index_t> lp{0}, lc, np{0}, nc;
    std::vector<value_t> lv, nv;
    reserve_split(m, frag.nnz(), lp, lc, lv);
    reserve_split(m, frag.nnz(), np, nc, nv);
    for (index_t i = 0; i < m; ++i) {
      auto cols = frag.row_cols(i);
      auto vals = frag.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (is_mine(cols[k])) {
          lc.push_back(cols[k]);
          lv.push_back(vals[k]);
        } else {
          nc.push_back(cols[k]);
          nv.push_back(vals[k]);
        }
      }
      lp.push_back(static_cast<index_t>(lc.size()));
      np.push_back(static_cast<index_t>(nc.size()));
    }
    out.a_local = Csr(m, N, std::move(lp), std::move(lc), std::move(lv));
    out.a_nonlocal = Csr(m, N, std::move(np), std::move(nc), std::move(nv));
  } else {
    // Mixed: only A_SNL's columns are translated (to ghost slots).
    std::vector<index_t> np{0}, nc;
    std::vector<value_t> nv;
    reserve_split(m, frag_snl.nnz(), np, nc, nv);
    std::vector<std::pair<index_t, value_t>> row;
    for (index_t i = 0; i < m; ++i) {
      auto cols = frag_snl.row_cols(i);
      auto vals = frag_snl.row_vals(i);
      row.clear();
      for (std::size_t k = 0; k < cols.size(); ++k)
        row.emplace_back(slot_of.at(cols[k]), vals[k]);
      // Ghost slots follow (owner, global) order, not global order, so the
      // row is re-sorted to keep the CSR invariant.
      std::sort(row.begin(), row.end());
      for (auto& [c, v] : row) {
        nc.push_back(c);
        nv.push_back(v);
      }
      np.push_back(static_cast<index_t>(nc.size()));
    }
    const index_t width = out.sched.full_size();
    out.a_nonlocal =
        Csr(m, width, std::move(np), std::move(nc), std::move(nv));
  }
  });
  out.inspector_vtime = p.virtual_time() - inspector_t0;
  return out;
}

}  // namespace bernoulli::spmd
