#include "spmd/matvec.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <tuple>
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

// The assembly pass of the fragmentation equation (Eq. 15): reads this
// rank's rows of the global matrix (`mine`, local-offset order) once to
// count and once to fill exactly sized CSR arrays. owned_col(j) is owned
// column j's column in the owned part, -1 for any other j; those entries
// go to the other part with global columns. A null part is not written.
// `tail`, if given, holds exactly each row's other entries (translated);
// each owned row is then followed by tail's row: the fused fragment.
template <class OwnedCol>
void cut_rows(const Csr& a, std::span<const index_t> mine,
              const OwnedCol& owned_col, Csr* owned, index_t owned_width,
              Csr* other, const Csr* tail = nullptr) {
  const std::size_t m = mine.size();
  std::vector<index_t> optr(m + 1, 0), nptr(m + 1, 0);
  for (std::size_t r = 0; r < m; ++r) {
    const auto len = static_cast<index_t>(a.row_cols(mine[r]).size());
    index_t n_owned = 0;
    if (tail)
      n_owned = len - (tail->rowptr()[r + 1] - tail->rowptr()[r]);
    else
      for (index_t j : a.row_cols(mine[r])) n_owned += owned_col(j) >= 0;
    optr[r + 1] = optr[r] + (tail ? len : n_owned);
    nptr[r + 1] = nptr[r] + len - n_owned;
  }
  std::vector<index_t> oc(owned ? static_cast<std::size_t>(optr.back()) : 0);
  std::vector<index_t> nc(other ? static_cast<std::size_t>(nptr.back()) : 0);
  std::vector<value_t> ov(oc.size()), nv(nc.size());
  for (std::size_t r = 0; r < m; ++r) {
    auto cols = a.row_cols(mine[r]);
    auto vals = a.row_vals(mine[r]);
    auto o = static_cast<std::size_t>(optr[r]);
    auto n = static_cast<std::size_t>(nptr[r]);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t c = owned_col(cols[k]);
      if (c >= 0 && owned) {
        oc[o] = c;
        ov[o++] = vals[k];
      } else if (c < 0 && other) {
        nc[n] = cols[k];
        nv[n++] = vals[k];
      }
    }
    if (!tail) continue;
    std::ranges::copy(tail->row_cols(static_cast<index_t>(r)), oc.data() + o);
    std::ranges::copy(tail->row_vals(static_cast<index_t>(r)), ov.data() + o);
  }
  const auto rows = static_cast<index_t>(m);
  if (owned)
    *owned = Csr(rows, owned_width, std::move(optr), std::move(oc),
                 std::move(ov));
  if (other)
    *other = Csr(rows, a.cols(), std::move(nptr), std::move(nc), std::move(nv));
}

// The mixed parts' owned-column map: j's local offset here, or -1. Where
// this rank's indices (`mine`, in local-offset order) form runs of
// consecutive indices kLongRun long on average, it looks j up in a table
// of those runs, the run of the last hit first (a row's columns mostly
// fall in the run of its neighbours); otherwise (cyclic, indirect) it
// asks rows.owner_local. Each caller builds its own, so rank threads
// share nothing mutable.
class LocalCol {
 public:
  LocalCol(const Distribution& rows, int me, std::span<const index_t> mine)
      : rows_(rows), me_(me) {
    std::size_t runs = 0;
    for (std::size_t k = 0; k < mine.size(); ++k)
      runs += k == 0 || mine[k] != mine[k - 1] + 1;
    if (runs == 0 || runs * kLongRun > mine.size()) return;
    runs_.reserve(runs);
    for (std::size_t k = 0; k < mine.size(); ++k) {
      if (!runs_.empty() && runs_.back().end == mine[k])
        ++runs_.back().end;
      else
        runs_.push_back({mine[k], mine[k] + 1, static_cast<index_t>(k)});
    }
    std::ranges::sort(runs_, {}, &Run::start);
  }

  index_t operator()(index_t j) const {
    if (runs_.empty()) {
      const OwnerLocal ol = rows_.owner_local(j);
      return ol.owner == me_ ? ol.local : index_t{-1};
    }
    const Run* r = &runs_[last_];
    if (j < r->start || j >= r->end) {
      const auto it = std::ranges::upper_bound(runs_, j, {}, &Run::start);
      if (it == runs_.begin() || j >= std::prev(it)->end) return -1;
      last_ = static_cast<std::size_t>(it - runs_.begin()) - 1;
      r = &runs_[last_];
    }
    return r->local + (j - r->start);
  }

 private:
  static constexpr std::size_t kLongRun = 8;
  struct Run {
    index_t start, end, local;  // [start, end) at local offsets local..
  };
  const Distribution& rows_;
  int me_;
  std::vector<Run> runs_;
  mutable std::size_t last_ = 0;
};

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
std::vector<index_t> used_columns_direct(std::vector<index_t> used) {
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

// The inspector's product and the virtual seconds of its timed window.
struct Inspection {
  CommSchedule sched;
  std::unordered_map<index_t, index_t> slot_of;  // ghost j -> x_full slot
  double vtime = 0.0;
};

// The inspector proper, inside the timed window Table 3 reports: Used(p),
// ownership, ghost layout, requests and the schedule, then `translate`
// (the variant's index-translation step). The mixed variants read only
// `snl` (A_SNL, global columns); the naive ones every owned row of `a`.
// Its transients (Used, owners, requests) are freed on return.
template <class Translate>
Inspection inspect(runtime::Process& p, const Csr& a,
                   std::span<const index_t> mine, const Distribution& rows,
                   Variant variant, const Csr& snl, Translate&& translate) {
  const int P = p.nprocs();
  const int me = p.rank();
  const auto m = static_cast<index_t>(mine.size());
  Inspection out;

  p.barrier();  // exclude prep skew from the timed window
  support::PhaseScope phase("inspector");
  support::TraceSpan insp_span("inspector", "spmd");
  insp_span.arg("variant", variant_name(variant));
  const double inspector_t0 = p.virtual_time();

  // 1. Used(p): which global x indices must be resolved.
  //    - naive: EVERY referenced index, via a direct pass over every
  //      column of the owned rows (work ~ local problem size);
  //    - Bernoulli-Mixed / Indirect-Mixed: relational query over A_SNL
  //      only (work ~ boundary);
  //    - BlockSolve: direct pass over A_SNL.
  std::vector<index_t> used;
  {
    support::TraceSpan step("inspector.used", "spmd");
    p.solo([&] {
      if (variant == Variant::kBlockSolve) {
        used = used_columns_direct({snl.colind().begin(), snl.colind().end()});
      } else if (variant_is_naive(variant)) {
        // The generated fully-data-parallel inspector is also compiled code
        // (kernel-library transcription of the emitted query); what makes
        // it an order of magnitude more expensive than the mixed inspector
        // is its reference VOLUME — it enumerates every reference in the
        // fragment (plus the O(N) translation below), not just A_SNL's.
        std::vector<index_t> cols;
        for (index_t g : mine)
          cols.insert(cols.end(), a.row_cols(g).begin(), a.row_cols(g).end());
        used = used_columns_direct(std::move(cols));
      } else {
        used = used_columns_relational(snl);
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
      distrib::ChaosTranslationTable table(p, a.cols(), mine);
      owners = table.query(p, used);
    } else {
      for (std::size_t k = 0; k < used.size(); ++k)
        owners[k] = rows.owner_local(used[k]);
    }
  }

  // 3. Ghost layout: non-local used indices grouped by owner (ascending
  //    global index within each owner — `used` is already sorted).
  CommSchedule& sched = out.sched;
  sched.nprocs = P;
  sched.owned = m;
  sched.send_local.assign(static_cast<std::size_t>(P), {});
  sched.recv_count.assign(static_cast<std::size_t>(P), 0);
  sched.ghost_base.assign(static_cast<std::size_t>(P), 0);

  std::vector<std::vector<index_t>> need(static_cast<std::size_t>(P));
  {
    support::TraceSpan step("inspector.ghost_layout", "spmd");
    p.solo([&] {
      for (std::size_t k = 0; k < used.size(); ++k) {
        if (owners[k].owner == me) continue;  // naive variants: local j here
        need[static_cast<std::size_t>(owners[k].owner)].push_back(used[k]);
      }
      index_t next_slot = m;
      for (int q = 0; q < P; ++q) {
        sched.ghost_base[static_cast<std::size_t>(q)] = next_slot;
        sched.recv_count[static_cast<std::size_t>(q)] =
            static_cast<index_t>(need[static_cast<std::size_t>(q)].size());
        for (index_t j : need[static_cast<std::size_t>(q)])
          out.slot_of.emplace(j, next_slot++);
      }
      sched.ghosts = next_slot - m;
    });
    step.arg("ghosts", static_cast<long long>(sched.ghosts));
  }

  // 4. Tell each owner what we need (RecvInd -> their send lists).
  {
    support::TraceSpan step("inspector.requests", "spmd");
    auto requests = p.alltoallv(need, kRequestTag);
    p.solo([&] {
      for (int q = 0; q < P; ++q) {
        auto& list = sched.send_local[static_cast<std::size_t>(q)];
        list.reserve(requests[static_cast<std::size_t>(q)].size());
        for (index_t j : requests[static_cast<std::size_t>(q)]) {
          const OwnerLocal ol = rows.owner_local(j);
          BERNOULLI_CHECK_MSG(ol.owner == me, "rank " << q << " requested " << j
                                                      << " which rank " << me
                                                      << " does not own");
          list.push_back(ol.local);
        }
      }
      sched.validate();
    });
  }

  // 5. Index-translation application.
  support::TraceSpan translate_step("inspector.translate", "spmd");
  p.solo([&] { translate(out); });
  out.vtime = p.virtual_time() - inspector_t0;
  return out;
}

// Mixed variants: cuts A_SNL, the only intermediate (and a_local, when
// asked), then inspects it; the translation renumbers A_SNL to ghost slots
// in place, re-sorting rows: slots follow (owner, global) order. Local
// offsets ascend with global indices inside one owner for every
// distribution in distrib/, so a_local's rows stay sorted (Csr validates).
Csr inspect_mixed(runtime::Process& p, const Csr& a, const Distribution& rows,
                  std::span<const index_t> mine, Variant variant,
                  Csr* a_local, Inspection& ins) {
  Csr snl;
  cut_rows(a, mine, LocalCol(rows, p.rank(), mine), a_local,
           static_cast<index_t>(mine.size()), &snl);
  ins = inspect(p, a, mine, rows, variant, snl, [&](const Inspection& in) {
    auto [ptr, ind, vals] = std::move(snl).release();
    std::vector<std::pair<index_t, value_t>> row;
    for (std::size_t i = 0; i + 1 < ptr.size(); ++i) {
      const auto b = static_cast<std::size_t>(ptr[i]);
      row.clear();
      for (auto k = b; k < static_cast<std::size_t>(ptr[i + 1]); ++k)
        row.emplace_back(in.slot_of.at(ind[k]), vals[k]);
      std::sort(row.begin(), row.end());
      for (std::size_t k = 0; k < row.size(); ++k)
        std::tie(ind[b + k], vals[b + k]) = row[k];
    }
    snl = Csr(in.sched.owned, in.sched.full_size(), std::move(ptr),
              std::move(ind), std::move(vals));
  });
  return snl;
}

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
  const std::vector<index_t> mine = rows.owned_indices(p.rank());
  DistSpmv out;
  out.variant = variant;
  Inspection ins;

  // The paper's inspector/executor split charges data-structure assembly
  // to matrix setup: the BlockSolve library *stores* A split into local
  // and non-local parts with local indices, and every implementation gets
  // its fragment for free. What Table 3 contrasts is the work needed to
  // build communication sets and index translations.
  if (!variant_is_naive(variant)) {
    out.a_nonlocal =
        inspect_mixed(p, a, rows, mine, variant, &out.a_local, ins);
  } else {
    // The naive variants find locality through a hash of the owned rows.
    std::unordered_map<index_t, index_t> my_local;
    my_local.reserve(mine.size());
    for (std::size_t k = 0; k < mine.size(); ++k)
      my_local.emplace(mine[k], static_cast<index_t>(k));
    ins = inspect(p, a, mine, rows, variant, Csr(), [&](const Inspection& in) {
      // The fully data-parallel code discovers locality per reference:
      // build the full global->slot translation (O(N) memory and work per
      // rank) and split the three products by looking every column up —
      // the "redundant work to discover that most references are local".
      // Both parts keep global columns.
      out.xtrans.assign(static_cast<std::size_t>(a.cols()), -1);
      for (index_t j = 0; j < a.cols(); ++j) {
        index_t& slot = out.xtrans[static_cast<std::size_t>(j)];
        if (auto own = my_local.find(j); own != my_local.end())
          slot = own->second;
        else if (auto g = in.slot_of.find(j); g != in.slot_of.end())
          slot = g->second;
      }
      cut_rows(
          a, mine,
          [&](index_t j) { return my_local.count(j) ? j : index_t{-1}; },
          &out.a_local, a.cols(), &out.a_nonlocal);
    });
  }
  out.sched = std::move(ins.sched);
  out.inspector_vtime = ins.vtime;
  return out;
}

FusedFragment build_fused_fragment(runtime::Process& p, const Csr& a,
                                   const Distribution& rows) {
  BERNOULLI_CHECK(a.rows() == a.cols());
  BERNOULLI_CHECK(rows.global_size() == a.rows());
  const std::vector<index_t> mine = rows.owned_indices(p.rank());
  Inspection ins;
  const Csr snl = inspect_mixed(p, a, rows, mine, Variant::kBernoulliMixed,
                                nullptr, ins);
  FusedFragment out{std::move(ins.sched), {}};
  cut_rows(a, mine, LocalCol(rows, p.rank(), mine), &out.a, out.sched.full_size(),
           nullptr, &snl);
  return out;
}

}  // namespace bernoulli::spmd
