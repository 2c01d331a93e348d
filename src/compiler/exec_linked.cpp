// The linked cursor executor: runs a LinkedPlan with an explicit level
// stack, pull-style cursors and batched observability.
//
// Engine contract (enforced by tests/exec_linked_test.cpp): for any
// (Plan, Query) the interpreter accepts, this engine produces bitwise-
// identical results, identical executor.* counter deltas and identical
// per-level enumerated/produced totals. The differences are purely
// mechanical:
//   - iteration pulls through flat Cursors (one virtual begin_cursor per
//     level invocation) instead of pushing through EnumFn std::functions
//     (one virtual dispatch + one std::function call per element);
//   - probes run lowered SearchSpecs (inline bounds checks / binary
//     searches over raw arrays) instead of virtual search calls;
//   - the merge join streams its drivers with a k-finger sweep over live
//     cursors instead of materializing every segment first — same step
//     count, same enumerated totals (unconsumed elements are accounted at
//     frame close; every cursor knows its extent), no allocation;
//   - counts, fan-out buckets and the profile accumulate in the run
//     record and commit once per run instead of one registry add per
//     event.
//
// ParallelRunner (bottom of this file) workshares the outermost
// enumerate level across the shared thread pool when the link-time
// legality check passed (LinkedPlan::parallel_ok): a deterministic chunk
// grid over the outer cursor range, or for owner-computes plans (CCS
// y += A·x) one range of output rows per worker with its segment of
// every column cut by an inspector at construction. Per-worker runners
// keep private scratch and run records, merged and committed once per
// run so observability stays exact — same executor.* deltas,
// same histogram samples, same trace span totals as a serial run, for
// any thread count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/fused_lowering.hpp"
#include "compiler/link.hpp"
#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace bernoulli::compiler {

namespace {

long long wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

index_t bin_search(const index_t* ind, index_t lo, index_t hi, index_t idx) {
  const index_t* first = ind + lo;
  const index_t* last = ind + hi;
  const index_t* it = std::lower_bound(first, last, idx);
  if (it != last && *it == idx) return static_cast<index_t>(it - ind);
  return -1;
}

}  // namespace

bool LinkedRunner::resolve_probes(const LinkedLevel& lv,
                                  support::WorkCounts& c) {
  for (const LinkedProbe& pr : lv.probes) {
    const index_t idx = vars_[static_cast<std::size_t>(pr.var_slot)];
    const index_t parent =
        pr.access.parent_slot < 0
            ? 0
            : pos_[static_cast<std::size_t>(pr.access.parent_slot)];
    index_t p = -1;
    const relation::SearchSpec& s = pr.search;
    switch (s.kind) {
      case relation::SearchSpec::Kind::kIdentity:
        p = (idx >= 0 && idx < s.extent) ? idx : -1;
        break;
      case relation::SearchSpec::Kind::kAffine:
        p = (idx >= 0 && idx < s.extent) ? parent * s.stride + idx : -1;
        break;
      case relation::SearchSpec::Kind::kSegmentBinary:
        p = bin_search(s.ind, s.ptr[parent], s.ptr[parent + 1], idx);
        break;
      case relation::SearchSpec::Kind::kListBinary:
        p = bin_search(s.ind, 0, s.extent, idx);
        break;
      case relation::SearchSpec::Kind::kFunction:
        p = s.map[parent] == idx ? parent : -1;
        break;
      case relation::SearchSpec::Kind::kVirtual:
        p = pr.access.level->search(parent, idx);
        break;
    }
    if (p < 0) {
      ++c.probe_misses;
      if (pr.filters) return false;
      if (pr.insert_on_miss) {
        ++c.fill_ins;
        // Same confinement as the interpreter: insertion is the one
        // mutating access-method operation, reached only by outputs.
        p = const_cast<relation::IndexLevel&>(*pr.access.level)
                .insert(parent, idx);
      } else {
        const auto& rel =
            lp_.query->relations[static_cast<std::size_t>(pr.access.rel)];
        BERNOULLI_CHECK_MSG(
            false, rel.view->name()
                       << " missed a non-filtering probe at "
                       << rel.vars[static_cast<std::size_t>(pr.access.depth)]
                       << " = " << idx);
      }
    } else {
      ++c.probe_hits;
    }
    pos_[static_cast<std::size_t>(pr.access.pos_slot)] = p;
  }
  return true;
}

void LinkedRunner::open_frame(std::size_t d) {
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];
  f.inv_enumerated = 0;
  f.inv_produced = 0;
  f.advance_pending = false;
  f.seg_bytes = 0;
  for (std::size_t s = 0; s < lv.drivers.size(); ++s) {
    const LinkedAccess& a = lv.drivers[s];
    const index_t parent =
        a.parent_slot < 0 ? 0 : pos_[static_cast<std::size_t>(a.parent_slot)];
    // The descriptor was captured at link time, so non-opaque levels open
    // with zero virtual calls; opaque levels (spa accumulators, hash
    // stores) go through the buffered adapter as before.
    if (a.desc.kind != relation::LevelDescriptor::Kind::kOpaque)
      relation::descriptor_cursor(a.desc, parent, f.cursors[s]);
    else
      a.level->begin_cursor(parent, f.cursors[s], f.bufs[s]);
  }
  if (lv.method == JoinMethod::kMerge) {
    // What the interpreter would materialize for this invocation (and what
    // the kBuffered fallbacks may actually have materialized into bufs).
    for (const relation::Cursor& cur : f.cursors)
      f.seg_bytes += static_cast<long long>(cur.remaining()) *
                     static_cast<long long>(sizeof(relation::IndexPos));
  }
}

bool LinkedRunner::next_binding(std::size_t d, support::WorkCounts& c) {
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];

  if (lv.method == JoinMethod::kEnumerate) {
    relation::Cursor& cur = f.cursors[0];
    const std::size_t pos_slot =
        static_cast<std::size_t>(lv.drivers[0].pos_slot);
    const std::size_t var_slot = static_cast<std::size_t>(lv.var_slot);
    while (cur.valid()) {
      ++f.inv_enumerated;
      vars_[var_slot] = cur.index();
      pos_[pos_slot] = cur.pos();
      cur.advance();
      if (resolve_probes(lv, c)) {
        ++f.inv_produced;
        return true;
      }
    }
    return false;
  }

  // Multi-way merge join, streamed: the interpreter's k-finger sweep with
  // cursors as the fingers. advance_pending replays its advance-all-
  // fingers-after-a-match step when the caller pulls the next binding.
  const std::size_t k = lv.drivers.size();
  if (f.advance_pending) {
    f.advance_pending = false;
    for (std::size_t s = 0; s < k; ++s) {
      f.cursors[s].advance();
      ++f.inv_enumerated;
    }
  }
  while (true) {
    ++c.merge_steps;
    bool done = false;
    index_t target = -1;
    for (std::size_t s = 0; s < k; ++s) {
      if (!f.cursors[s].valid()) {
        done = true;
        break;
      }
      target = std::max(target, f.cursors[s].index());
    }
    if (done) return false;
    bool all_match = true;
    for (std::size_t s = 0; s < k; ++s) {
      relation::Cursor& cur = f.cursors[s];
      while (cur.valid() && cur.index() < target) {
        cur.advance();
        ++f.inv_enumerated;
      }
      if (!cur.valid()) {
        all_match = false;
        done = true;
        break;
      }
      if (cur.index() != target) all_match = false;
    }
    if (done) return false;
    if (all_match) {
      vars_[static_cast<std::size_t>(lv.var_slot)] = target;
      for (std::size_t s = 0; s < k; ++s)
        pos_[static_cast<std::size_t>(lv.drivers[s].pos_slot)] =
            f.cursors[s].pos();
      if (resolve_probes(lv, c)) {
        ++f.inv_produced;
        f.advance_pending = true;
        return true;
      }
      for (std::size_t s = 0; s < k; ++s) {
        f.cursors[s].advance();
        ++f.inv_enumerated;
      }
    }
  }
}

void LinkedRunner::close_frame(std::size_t d, support::WorkCounts& c,
                               RunStats* stats) {
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];
  if (lv.method == JoinMethod::kMerge) {
    // Streaming stops at the first exhausted driver; the interpreter's
    // materialization counted every segment element. Cursors know their
    // extent, so the unconsumed tails reconcile the totals exactly.
    for (const relation::Cursor& cur : f.cursors)
      f.inv_enumerated += cur.remaining();
    c.merge_segment_bytes += f.seg_bytes;
  }
  c.enumerated += f.inv_enumerated;
  if (d == 0 && chunk_outer_produced_ != nullptr) {
    // Chunk mode: the serial engine books ONE level-0 fan-out sample per
    // run (one outer invocation), so per-chunk samples would inflate the
    // histogram total. Hand the count to the coordinator instead.
    *chunk_outer_produced_ += f.inv_produced;
  } else {
    rec_.add_fanout(d, f.inv_produced);
  }
  if (stats) {
    stats->levels[d].enumerated += f.inv_enumerated;
    stats->levels[d].produced += f.inv_produced;
  }
}

void LinkedRunner::begin_record() {
  rec_.begin(lp_.levels.size());
  if (support::profiling_enabled())
    rec_.profile.levels = static_cast<int>(
        std::min<std::size_t>(lp_.levels.size(), support::kProfileMaxLevels));
}

void LinkedRunner::commit(RunStats* stats, long long wall_ns) {
  rec_.wall_ns = wall_ns;
  lp_.sink->commit(rec_);
  if (stats) stats->tuples = rec_.work.tuples;
}

// Plans the fused outer-range drain for `mac`: engages exactly when
// leaf_form() gives the pair a fused form, which proves the shape the
// drain relies on — two enumerate levels, a dense outer range whose
// probes are rooted, both levels all-hit, a compressed, sliced or blocked
// leaf hanging off level 0, flat alias-free operands, every operand
// position bound at level 0 or derived at the leaf — and lowers the pair
// for fl_drain (lower_fused). Everything else keeps the level stack,
// which stays the ground truth the drain must reproduce bitwise.
void LinkedRunner::prepare_outer(const LinkedMac& mac) {
  outer_ok_ = leaf_form(lp_, mac) != LeafForm::kPerElement;
  if (outer_ok_) lower_fused(lp_, mac, *fused_);
}

namespace {

static_assert(sizeof(index_t) == sizeof(int) &&
              FL_BUCKETS == support::Log2Histogram::kBuckets);

// The SpMV pairs' operand forms: row-major (values at the leaf position
// times x at the leaf index, the target fixed per row), column-major
// (values times x at the row, the target at the leaf index), or another
// lowering.
enum class Pair { kRowMajor, kColumnMajor, kOther };

bool is_op(const fl_op& o, int step, int mp, int mi) {
  return o.base == 0 && o.step == step && o.mp == mp && o.mi == mi;
}

Pair pair_of(const FusedLowering& f) {
  if (f.factors.size() != 2 || !is_op(f.factors[0], 0, -1, 0))
    return Pair::kOther;
  if (is_op(f.factors[1], 0, 0, -1) && is_op(f.target, 1, 0, 0))
    return Pair::kRowMajor;
  if (is_op(f.factors[1], 1, 0, 0) && is_op(f.target, 0, 0, -1))
    return Pair::kColumnMajor;
  return Pair::kOther;
}

// fl_drain with pair P's operand forms, the unit scale (U), the leaf kind
// and a square block size B (0: runtime) as literals, so each instance
// inlines its own loop, as cc folds the emitted glue's constants. Each
// instance stays a function of its own: inlined together into
// fused_drain, the CSR loop lost a register to the others and reloaded
// x's base from the stack per element (grid3d CG ~30 % slower).
template <Pair P, bool U, int Kind, int B>
[[gnu::noinline]] long long drain_as(const FusedLowering& f, fl_leaf leaf, value_t* y,
                   value_t scale, index_t k0, index_t k1, long long* fan) {
  leaf.kind = Kind;
  if constexpr (B > 0) leaf.br = leaf.bc = B;
  const bool row_major = P == Pair::kRowMajor;
  const fl_op ops[2] = {{f.factors[0].data, 0, 0, -1, 0},
                        {f.factors[1].data, 0, row_major ? 0 : 1, 0,
                         row_major ? -1 : 0}};
  const fl_op t{nullptr, 0, row_major ? 1 : 0, 0, row_major ? 0 : -1};
  const fl_mac m{U ? 1.0 : scale, 2, ops, y, t, row_major};
  return fl_drain(&leaf, &m, k0, k1, fan);
}

template <Pair P, bool U>
long long drain_pair(const FusedLowering& f, const fl_leaf& l, value_t* y,
                     value_t s, index_t k0, index_t k1, long long* fan) {
  const int sq = l.br == l.bc ? l.br : 0;  // a square block size
  if (l.kind == FL_COMPRESSED)
    return drain_as<P, U, FL_COMPRESSED, 0>(f, l, y, s, k0, k1, fan);
  if (l.kind == FL_SLICED)
    return drain_as<P, U, FL_SLICED, 0>(f, l, y, s, k0, k1, fan);
  if (sq == 2) return drain_as<P, U, FL_BLOCKED, 2>(f, l, y, s, k0, k1, fan);
  if (sq == 3) return drain_as<P, U, FL_BLOCKED, 3>(f, l, y, s, k0, k1, fan);
  if (sq == 4) return drain_as<P, U, FL_BLOCKED, 4>(f, l, y, s, k0, k1, fan);
  return drain_as<P, U, FL_BLOCKED, 0>(f, l, y, s, k0, k1, fan);
}

// Drains outer rows [k0, k1) of a fused pair through fl_drain, with the
// compressed leaf's segments [lo[k], hi[k]); returns the leaf tuples.
long long fused_drain(const FusedLowering& f, const LinkedMac& mac,
                      index_t k0, index_t k1, const index_t* lo,
                      const index_t* hi, long long* fan) {
  fl_leaf leaf = f.leaf;
  leaf.lo = lo;
  leaf.hi = hi;
  value_t* const y = mac.target_data.data();
  const value_t s = mac.scale;
  constexpr Pair kRow = Pair::kRowMajor, kCol = Pair::kColumnMajor;
  const Pair p = pair_of(f);
  if (p == kRow && s == 1.0)
    return drain_pair<kRow, true>(f, leaf, y, s, k0, k1, fan);
  if (p == kRow) return drain_pair<kRow, false>(f, leaf, y, s, k0, k1, fan);
  if (p == kCol && s == 1.0)
    return drain_pair<kCol, true>(f, leaf, y, s, k0, k1, fan);
  if (p == kCol) return drain_pair<kCol, false>(f, leaf, y, s, k0, k1, fan);
  const fl_mac m{s, static_cast<int>(f.factors.size()), f.factors.data(), y,
                 f.target, f.acc};
  return fl_drain(&leaf, &m, k0, k1, fan);
}

}  // namespace

// The run(LinkedMac) sink. operator() is the per-element multiply-
// accumulate (unchanged semantics); try_outer is the hook run_span offers
// the open outer range to. A local class cannot befriend templates, so
// this lives at class scope with full access to the runner internals.
struct LinkedRunner::MacSink {
  LinkedRunner& r;
  const LinkedMac& mac;
  std::size_t tslot;

  void operator()() const {
    value_t prod = mac.scale;
    for (std::size_t i = 0; i < mac.factors.size(); ++i) {
      const LinkedMac::Factor& f = mac.factors[i];
      const index_t p = r.pos_[r.mac_pslots_[i]];
      prod *= f.data.empty() ? f.view->value_at(p)
                             : f.data[static_cast<std::size_t>(p)];
    }
    const index_t tp = r.pos_[tslot];
    if (mac.target_data.empty())
      mac.target->value_add(tp, prod);
    else
      mac.target_data[static_cast<std::size_t>(tp)] += prod;
  }

  // Books w drained leaf tuples: each enumerates, hits every leaf probe
  // and produces; with profiling on (prof), one exact interval since
  // prof_t0 under the leaf's drain kind.
  void book_leaf(support::WorkCounts& c, RunStats* st, long long w, bool prof,
                 long long prof_t0) const {
    const LinkedLevel& lv1 = r.lp_.levels[1];
    c.tuples += w;
    c.enumerated += w;
    c.probe_hits += w * static_cast<long long>(lv1.probes.size());
    if (st) {
      st->levels[1].enumerated += w;
      st->levels[1].produced += w;
    }
    if (prof) {
      const int pk = fused_drain_kind(r.lp_);
      r.rec_.profile.add_work(1, pk, w);
      if (w > 0)
        r.rec_.profile.book_ns(1, pk, support::profile_now_ns() - prof_t0, w);
    }
  }

  // Fused outer-range drain: run_span offers the open level-0 frame
  // whenever the engine sits at the outer level. When prepare_outer
  // engaged, the whole remaining outer range [cur, end) drains in one
  // fl_drain call instead of one next_binding / open_frame /
  // drain_enumerate_leaf / close_frame round trip per row. Rows drain in
  // order and each row's segment forms its products in the per-element
  // order, so outputs are bitwise-identical; counters, the level-1
  // fan-out samples, per-level stats and profile work counts book exactly
  // what the per-row path books (order-invariant totals). Chunk clamps
  // are respected: only the frame's own [cur, end) is consumed.
  void try_outer(support::WorkCounts& c, RunStats* st) const {
    if (!r.outer_ok_) return;
    relation::Cursor& cur = r.frames_[0].cursors[0];  // a dense row range
    if (!cur.valid()) return;
    const LinkedLevel& lv0 = r.lp_.levels[0];
    const bool prof = support::profiling_enabled();
    const long long prof_t0 = prof ? support::profile_now_ns() : 0;
    const index_t k0 = cur.cur;
    const index_t k1 = cur.end;
    const long long w = fused_drain(*r.fused_, mac, k0, k1, r.fused_->leaf.lo,
                                    r.fused_->leaf.hi, r.rec_.fanout_level(1));
    cur.cur = k1;
    // Leave level 0's bindings at the last row, as the per-row path does:
    // every level-0 position is the row.
    r.vars_[static_cast<std::size_t>(lv0.var_slot)] = k1 - 1;
    r.pos_[static_cast<std::size_t>(lv0.drivers[0].pos_slot)] = k1 - 1;
    for (const LinkedProbe& pr : lv0.probes)
      r.pos_[static_cast<std::size_t>(pr.access.pos_slot)] = k1 - 1;

    // Per-row totals, booked once: level 0 enumerates, hits every probe
    // and produces every row (closed by close_frame(0)); level 1 closes
    // one frame per row.
    const long long rows = k1 - k0;
    r.frames_[0].inv_enumerated += rows;
    r.frames_[0].inv_produced += rows;
    c.probe_hits += rows * static_cast<long long>(lv0.probes.size());
    if (prof) r.rec_.profile.add_work(0, support::kProfTuple, rows);
    book_leaf(c, st, w, prof, prof_t0);
  }

  // One owner-computes worker's share of a run (ParallelRunner::
  // run_owner): the fused drain over its segment of every column from
  // its first to its last non-empty one, in column order, plus the
  // level-1 fan-out of its slice of columns from FULL column lengths —
  // the samples the serial drain books per column. Level 0 is booked by
  // the coordinator.
  void drain_owned(support::WorkCounts& c, RunStats* st,
                   const OwnerPart& part) const {
    const bool prof = support::profiling_enabled();
    const long long prof_t0 = prof ? support::profile_now_ns() : 0;
    const long long w = fused_drain(*r.fused_, mac, part.col_lo, part.col_hi,
                                    part.lo, part.hi, nullptr);
    const index_t* const ptr = r.fused_->leaf.ptr;
    long long* const fan1 = r.rec_.fanout_level(1);
    for (index_t k = part.fan_lo; k < part.fan_hi; ++k)
      ++fan1[static_cast<std::size_t>(
          support::Log2Histogram::bucket_of(ptr[k + 1] - ptr[k]))];
    book_leaf(c, st, w, prof, prof_t0);
  }
};

template <class Sink>
void LinkedRunner::drain_enumerate_leaf(std::size_t d, support::WorkCounts& c,
                                        Sink&& sink, bool prof_time) {
  // Drain-kind attribution: the whole invocation books one work count (and,
  // inside a sampled bracket, one timestamp pair — never per tuple) as
  // tuple work.
  const bool profiling = support::profiling_enabled();
  const long long prof_t0 = prof_time ? support::profile_now_ns() : 0;
  Frame& f = frames_[d];
  const LinkedLevel& lv = lp_.levels[d];
  relation::Cursor& cur = f.cursors[0];
  const std::size_t pos_slot =
      static_cast<std::size_t>(lv.drivers[0].pos_slot);
  const std::size_t var_slot = static_cast<std::size_t>(lv.var_slot);
  long long produced = 0;

  // One cursor-kind dispatch for the whole invocation; the loop bodies are
  // the Cursor accessors inlined, with the hot fields held in locals.
  auto drain = [&](auto index_of, auto pos_of) {
    const index_t end = cur.end;
    f.inv_enumerated += cur.remaining();
    for (index_t k = cur.cur; k < end; ++k) {
      vars_[var_slot] = index_of(k);
      pos_[pos_slot] = pos_of(k);
      if (resolve_probes(lv, c)) {
        ++produced;
        ++c.tuples;
        sink();
      }
    }
    cur.cur = end;
  };
  switch (cur.kind) {
    case relation::Cursor::Kind::kDenseRange: {
      const index_t base = cur.base;
      drain([](index_t k) { return k; },
            [base](index_t k) { return base + k; });
      break;
    }
    case relation::Cursor::Kind::kIndArray: {
      const index_t* ind = cur.ind;
      drain([ind](index_t k) { return ind[k]; },
            [](index_t k) { return k; });
      break;
    }
    case relation::Cursor::Kind::kBuffered: {
      const relation::IndexPos* buf = cur.buf;
      drain([buf](index_t k) { return buf[k].idx; },
            [buf](index_t k) { return buf[k].pos; });
      break;
    }
    default:
      while (cur.valid()) {
        ++f.inv_enumerated;
        vars_[var_slot] = cur.index();
        pos_[pos_slot] = cur.pos();
        cur.advance();
        if (resolve_probes(lv, c)) {
          ++produced;
          ++c.tuples;
          sink();
        }
      }
      break;
  }
  f.inv_produced += produced;
  if (profiling) {
    rec_.profile.add_work(static_cast<int>(d), support::kProfTuple, produced);
    if (prof_time)
      rec_.profile.book_ns(static_cast<int>(d), support::kProfTuple,
                           support::profile_now_ns() - prof_t0, produced);
  }
}

template <class Sink>
void LinkedRunner::run_impl(Sink&& sink, RunStats* stats) {
  const long long t0 = wall_now_ns();
  const std::size_t L = lp_.levels.size();
  begin_record();
  if (stats) {
    stats->tuples = 0;
    stats->levels.assign(L, LevelRunStats{});
  }
  if (L == 0) {
    ++rec_.work.tuples;
    sink();
  } else {
    run_span(sink, rec_.work, stats, 0, -1);
  }
  commit(stats, wall_now_ns() - t0);
}

template <class Sink>
void LinkedRunner::run_span(Sink&& sink, support::WorkCounts& c,
                            RunStats* stats, index_t chunk_begin,
                            index_t chunk_count) {
  std::fill(vars_.begin(), vars_.end(), static_cast<index_t>(-1));
  std::fill(pos_.begin(), pos_.end(), static_cast<index_t>(-1));

  const std::size_t leaf = lp_.levels.size() - 1;
  std::size_t d = 0;
  open_frame(0);
  if (chunk_count >= 0) {
    // Clamp the outer cursor onto this chunk's offsets. Every cursor kind
    // iterates cur in [cur, end), so clamping the two counters restricts
    // any driver — dense ranges, ind arrays, buffered fallbacks — to the
    // same deterministic slice regardless of which worker pulls it.
    relation::Cursor& cur = frames_[0].cursors[0];
    const index_t lo = std::min<index_t>(cur.end, cur.cur + chunk_begin);
    const index_t hi = std::min<index_t>(cur.end, lo + chunk_count);
    cur.cur = lo;
    cur.end = hi;
  }
  // Sampled switch-clock (support/profile.hpp): every kProfileSampleEvery-th
  // outer binding opens a timing bracket; inside a bracket, one timestamp
  // per level TRANSITION books the elapsed segment to the level the engine
  // was executing (self time; book_ns also feeds every enclosing level's
  // inclusive slot). Leaf drains bracket the whole invocation. Work counts
  // are always on while profiling so the commit can extrapolate sampled
  // nanoseconds by the exact work ratio.
  const bool prof_on = support::profiling_enabled();
  bool prof_bracket = false;
  long long prof_last = 0;
  const auto prof_kind_of = [this](std::size_t lvl) {
    return lp_.levels[lvl].method == JoinMethod::kMerge
               ? support::kProfMerge
               : support::kProfTuple;
  };
  while (true) {
    // At the outer level, offer the range to the fused outer drain
    // (no-op unless prepare_outer engaged).
    if constexpr (requires { sink.try_outer(c, stats); }) {
      if (d == 0) sink.try_outer(c, stats);
    }
    if (d == leaf && lp_.levels[d].method == JoinMethod::kEnumerate) {
      if (prof_bracket) {
        // Segment since the last transition: this level's frame setup.
        const long long t = support::profile_now_ns();
        rec_.profile.book_ns(static_cast<int>(d), prof_kind_of(d),
                             t - prof_last, 0);
      }
      // A single-level plan drains the whole run in one invocation —
      // bracket it exactly rather than sampling.
      drain_enumerate_leaf(d, c, sink,
                           prof_bracket || (prof_on && leaf == 0));
      if (prof_bracket) prof_last = support::profile_now_ns();
      close_frame(d, c, stats);
      if (d == 0) break;
      --d;
    } else if (next_binding(d, c)) {
      if (prof_on) {
        rec_.profile.add_work(static_cast<int>(d), prof_kind_of(d), 1);
        if (d == 0) {
          // Outer-binding boundary: close the open bracket (the trailing
          // segment covers this binding's enumeration) and open a new one
          // every kProfileSampleEvery-th binding.
          if (prof_bracket) {
            const long long t = support::profile_now_ns();
            rec_.profile.book_ns(0, prof_kind_of(0), t - prof_last, 1);
            prof_bracket = false;
          }
          if (prof_outer_++ % support::kProfileSampleEvery == 0) {
            prof_bracket = true;
            prof_last = support::profile_now_ns();
          }
        } else if (prof_bracket && d != leaf) {
          // Descending: the segment was level-d enumeration + probes.
          const long long t = support::profile_now_ns();
          rec_.profile.book_ns(static_cast<int>(d), prof_kind_of(d),
                               t - prof_last, 1);
          prof_last = t;
        }
        // Per-tuple leaf bindings take no stamp; their time books at the
        // frame close below.
      }
      if (d == leaf) {
        ++c.tuples;
        sink();
      } else {
        ++d;
        open_frame(d);
      }
    } else {
      if (prof_bracket) {
        const long long t = support::profile_now_ns();
        rec_.profile.book_ns(static_cast<int>(d), prof_kind_of(d),
                             t - prof_last, 0);
        prof_last = t;
        if (d == 0) prof_bracket = false;
      }
      close_frame(d, c, stats);
      if (d == 0) break;
      --d;
    }
  }
}

namespace {

// Trace emission identical to the interpreter path — same span names, same
// per-level args — so the trace-reconciliation checks hold on either
// engine. The spans are synthetic intervals nested by depth (levels
// interleave; no level has a contiguous real interval).
template <class Body>
void traced(const LinkedPlan& lp, RunStats* stats, const Body& body) {
  if (!support::trace_enabled()) {
    body(stats);
    return;
  }
  RunStats local;
  RunStats* st = stats ? stats : &local;
  support::TraceSpan span("execute", "compiler");
  const double t0 = support::trace_now_us();
  body(st);
  const double t1 = support::trace_now_us();
  detail::emit_join_spans(*lp.plan, *st, t0, t1);
}

// A worker slot's execute.worker span. Slots may run on the coordinator
// itself (ThreadPool::run_slots), whose track keeps its name; every other
// thread's track is named after the slot.
std::unique_ptr<support::TraceSpan> worker_span(int slot, int coordinator) {
  const int tid = support::trace_track().tid;
  if (tid != coordinator)
    support::trace_name_thread(1, tid, "exec worker " + std::to_string(slot));
  return std::make_unique<support::TraceSpan>("execute.worker", "compiler");
}

}  // namespace

void LinkedRunner::run(const Action& action, RunStats* stats) {
  traced(lp_, stats, [&](RunStats* st) {
    run_impl(
        [&] {
          // Actions see the per-relation leaf positions through Env; the
          // gather lives here so the mac fast path below can skip it.
          for (std::size_t r = 0; r < leaf_.size(); ++r)
            leaf_[r] = pos_[static_cast<std::size_t>(lp_.leaf_slot[r])];
          Env env{vars_, leaf_};
          action(env);
        },
        st);
  });
}

void LinkedRunner::run(const LinkedMac& mac, RunStats* stats) {
  // Resolve each operand's leaf position slot once per run: the sink reads
  // pos_ directly and skips the per-tuple leaf_ gather entirely.
  mac_pslots_.clear();
  for (const LinkedMac::Factor& f : mac.factors)
    mac_pslots_.push_back(static_cast<std::size_t>(lp_.leaf_slot[f.slot]));
  const std::size_t tslot =
      static_cast<std::size_t>(lp_.leaf_slot[mac.target_slot]);
  prepare_outer(mac);
  traced(lp_, stats, [&](RunStats* st) {
    run_impl(MacSink{*this, mac, tslot}, st);
  });
}

void execute(const Plan& plan, const relation::Query& q,
             const Action& action) {
  LinkedRunner runner(link_plan(plan, q));
  runner.run(action);
}

// ---- Parallel outer-level worksharing ---------------------------------

ParallelRunner::ParallelRunner(LinkedPlan lp, int threads)
    : threads_(std::max(1, threads)) {
  parallel_ = threads_ > 1 && lp.parallel_ok;
  if (!parallel_)
    run_note_ = threads_ > 1 ? lp.parallel_note : "one thread";
  const int nworkers = parallel_ ? threads_ : 1;
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w)
    workers_.push_back(std::make_unique<LinkedRunner>(lp));
  if (parallel_ && lp.owner_computes) inspect_owner();
  if (parallel_) support::shared_pool(threads_);  // spawn once, not per run
}

// Owner-computes partition and inspector. The leaf's rows — every index
// it enumerates lies below each leaf probe's extent (proved all-hit at
// link time) — split into threads_ ranges holding about nnz/threads_
// entries each. One pass over the sorted columns then records where each
// column crosses each range boundary: O(nnz + threads·columns) time and
// (threads − 1)·columns cut entries. Level 0 is a dense range whose
// rooted probes sit at k, so outer row k walks column k's segment.
void ParallelRunner::inspect_owner() {
  const LinkedPlan& lp = workers_.front()->lp_;
  const relation::LevelDescriptor& leaf = lp.levels[1].drivers[0].desc;
  const index_t cols = lp.levels[0].drivers[0].desc.extent;
  BERNOULLI_CHECK(cols <= leaf.ptr_len - 1);
  index_t rows = std::numeric_limits<index_t>::max();
  for (const LinkedProbe& pr : lp.levels[1].probes)
    rows = std::min(rows, pr.search.extent);
  const index_t* const ptr = leaf.ptr;
  const index_t* const ind = leaf.ind;
  const int T = threads_;

  // Row boundaries: bound[t] is the first row with at least t/T of the
  // entries above it.
  std::vector<index_t> bound(static_cast<std::size_t>(T) + 1, rows);
  bound[0] = 0;
  {
    std::vector<index_t> per_row(static_cast<std::size_t>(rows), 0);
    for (index_t p = 0; p < cols; ++p)
      for (index_t e = ptr[p]; e < ptr[p + 1]; ++e)
        ++per_row[static_cast<std::size_t>(ind[e])];
    const long long total = cols > 0 ? ptr[cols] - ptr[0] : 0;
    long long above = 0;
    int t = 1;
    for (index_t i = 0; i < rows && t < T; ++i) {
      while (t < T && above * T >= t * total)
        bound[static_cast<std::size_t>(t++)] = i;
      above += per_row[static_cast<std::size_t>(i)];
    }
  }

  // Cuts: boundary t of column p is its first entry in a row at or past
  // bound[t] (columns are sorted), found in one forward sweep per column.
  const std::size_t n = static_cast<std::size_t>(cols);
  cuts_.assign(static_cast<std::size_t>(T - 1) * n, 0);
  for (index_t p = 0; p < cols; ++p) {
    index_t e = ptr[p];
    for (int t = 1; t < T; ++t) {
      while (e < ptr[p + 1] && ind[e] < bound[static_cast<std::size_t>(t)])
        ++e;
      cuts_[static_cast<std::size_t>(t - 1) * n +
            static_cast<std::size_t>(p)] = e;
    }
  }

  parts_.assign(static_cast<std::size_t>(T), LinkedRunner::OwnerPart{});
  for (int t = 0; t < T; ++t) {
    LinkedRunner::OwnerPart& part = parts_[static_cast<std::size_t>(t)];
    part.row_lo = bound[static_cast<std::size_t>(t)];
    part.row_hi = bound[static_cast<std::size_t>(t) + 1];
    const index_t* const cut = cuts_.data();
    part.lo = t == 0 ? ptr : cut + static_cast<std::size_t>(t - 1) * n;
    part.hi = t == T - 1 ? ptr + 1 : cut + static_cast<std::size_t>(t) * n;
    index_t first = cols;
    index_t last = -1;
    for (index_t p = 0; p < cols; ++p)
      if (part.hi[p] > part.lo[p]) {
        first = std::min(first, p);
        last = p;
      }
    part.col_lo = last >= 0 ? first : 0;
    part.col_hi = last + 1;
    part.fan_lo = static_cast<index_t>(static_cast<long long>(cols) * t / T);
    part.fan_hi =
        static_cast<index_t>(static_cast<long long>(cols) * (t + 1) / T);
  }
}

void ParallelRunner::merge_commit(const std::vector<Shard>& shards,
                                  RunStats* st, long long t0) {
  LinkedRunner& r0 = *workers_.front();
  const std::size_t L = r0.lp_.levels.size();
  long long outer_produced = 0;
  RunStats merged;
  merged.levels.assign(L, LevelRunStats{});
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Shard& ws = shards[w];
    outer_produced += ws.outer_produced;
    for (std::size_t d = 0; d < L; ++d) {
      merged.levels[d].enumerated += ws.stats.levels[d].enumerated;
      merged.levels[d].produced += ws.stats.levels[d].produced;
    }
    if (w != 0) r0.rec_.merge(workers_[w]->rec_);
  }
  r0.rec_.add_fanout(0, outer_produced);
  r0.commit(nullptr, wall_now_ns() - t0);
  if (st) {
    st->tuples = r0.rec_.work.tuples;
    st->levels = std::move(merged.levels);
  }
}

// The coordinator: deterministic chunk grid over the outer cursor range,
// guided assignment (workers pull the next chunk off one atomic), shards
// merged and committed ONCE — counts, fan-out buckets, stats and the
// trace all reconcile exactly with a serial run of the same plan.
template <class MakeSink>
void ParallelRunner::run_parallel(MakeSink&& make_sink, RunStats* stats) {
  LinkedRunner& r0 = *workers_.front();
  const std::size_t L = r0.lp_.levels.size();
  run_note_.clear();
  traced(r0.lp_, stats, [&](RunStats* st) {
    // One latency sample per run covering the whole fan-out, booked by the
    // coordinator's single commit — same sample count as a serial run.
    const long long t0 = wall_now_ns();
    // The outer extent, probed once: every worker's level-0 cursor opens
    // on the same root parent, so worker 0's view of the range is THE
    // range the chunk grid must cover.
    index_t extent = 0;
    {
      const LinkedAccess& a = r0.lp_.levels[0].drivers[0];
      relation::Cursor cur;
      relation::CursorBuffer buf;
      a.level->begin_cursor(0, cur, buf);
      extent = cur.remaining();
    }
    // Chunk grid: fixed size, independent of which worker runs what, a
    // few chunks per worker so uneven rows still balance. Blocked levels
    // round the chunk up to a whole number of block rows so one thread
    // owns each block row's ptr/ind/vals segment (chunk_align = 1
    // otherwise).
    index_t chunk =
        std::max<index_t>(1, (extent + threads_ * 4 - 1) /
                                 std::max(1, threads_ * 4));
    const index_t align = r0.lp_.chunk_align;
    if (align > 1) chunk = ((chunk + align - 1) / align) * align;

    std::vector<Shard> shards(workers_.size());
    std::atomic<index_t> next{0};
    const bool tracing = support::trace_enabled();
    const int coordinator = tracing ? support::trace_track().tid : -1;

    support::shared_pool(threads_).run_slots(
        threads_, [&](int slot) {
          LinkedRunner& r = *workers_[static_cast<std::size_t>(slot)];
          Shard& ws = shards[static_cast<std::size_t>(slot)];
          ws.stats.levels.assign(L, LevelRunStats{});
          r.chunk_outer_produced_ = &ws.outer_produced;
          r.begin_record();
          auto sink = make_sink(r);
          std::unique_ptr<support::TraceSpan> span;
          if (tracing) span = worker_span(slot, coordinator);
          while (true) {
            const index_t k = next.fetch_add(1, std::memory_order_relaxed);
            const index_t begin = k * chunk;
            if (begin >= extent) break;
            r.run_span(sink, r.rec_.work, &ws.stats, begin, chunk);
            ++ws.chunks;
          }
          r.chunk_outer_produced_ = nullptr;
          if (span)
            span->arg("chunks", ws.chunks).arg("tuples", r.rec_.work.tuples);
        });
    merge_commit(shards, st, t0);
  });
}

// Owner-computes run: every worker drains its own share (drain_owned)
// with no shared state but the read-only cut tables; the coordinator
// books level 0 once — columns enumerated and produced, one fan-out
// sample, columns·|level-0 probes| hits, the level-0 profile work — and
// merges the shards like a chunked run.
void ParallelRunner::run_owner(const LinkedMac& mac, RunStats* stats) {
  LinkedRunner& r0 = *workers_.front();
  const std::size_t L = r0.lp_.levels.size();
  const std::size_t tslot =
      static_cast<std::size_t>(r0.lp_.leaf_slot[mac.target_slot]);
  traced(r0.lp_, stats, [&](RunStats* st) {
    const long long t0 = wall_now_ns();
    const bool prof = support::profiling_enabled();
    const bool tracing = support::trace_enabled();
    const int coordinator = tracing ? support::trace_track().tid : -1;
    std::vector<Shard> shards(workers_.size());
    support::shared_pool(threads_).run_slots(threads_, [&](int slot) {
      LinkedRunner& r = *workers_[static_cast<std::size_t>(slot)];
      Shard& ws = shards[static_cast<std::size_t>(slot)];
      const LinkedRunner::OwnerPart& part =
          parts_[static_cast<std::size_t>(slot)];
      ws.stats.levels.assign(L, LevelRunStats{});
      r.begin_record();
      std::unique_ptr<support::TraceSpan> span;
      if (tracing) {
        span = worker_span(slot, coordinator);
        span->arg("row_lo", part.row_lo)
            .arg("row_hi", part.row_hi)
            .arg("col_lo", part.col_lo)
            .arg("col_hi", part.col_hi);
      }
      r.prepare_outer(mac);
      LinkedRunner::MacSink{r, mac, tslot}.drain_owned(r.rec_.work, &ws.stats,
                                                       part);
      if (span) span->arg("tuples", r.rec_.work.tuples);
    });
    const index_t cols = r0.lp_.levels[0].drivers[0].desc.extent;
    Shard& s0 = shards.front();
    s0.outer_produced = cols;
    r0.rec_.work.enumerated += cols;
    r0.rec_.work.probe_hits +=
        static_cast<long long>(cols) *
        static_cast<long long>(r0.lp_.levels[0].probes.size());
    s0.stats.levels[0].enumerated += cols;
    s0.stats.levels[0].produced += cols;
    if (prof) r0.rec_.profile.add_work(0, support::kProfTuple, cols);
    merge_commit(shards, st, t0);
  });
}

void ParallelRunner::run(const Action& action, RunStats* stats) {
  if (!parts_.empty())
    run_note_ =
        "owner-computes runs only the multiply-accumulate; run(Action) "
        "runs serially";
  if (!parallel_ || !parts_.empty()) {
    workers_.front()->run(action, stats);
    return;
  }
  run_note_.clear();
  run_parallel(
      [&](LinkedRunner& r) {
        return [&] {
          for (std::size_t rel = 0; rel < r.leaf_.size(); ++rel)
            r.leaf_[rel] =
                r.pos_[static_cast<std::size_t>(r.lp_.leaf_slot[rel])];
          Env env{r.vars_, r.leaf_};
          action(env);
        };
      },
      stats);
}

void ParallelRunner::run(const LinkedMac& mac, RunStats* stats) {
  LinkedRunner& r0 = *workers_.front();
  if (!parallel_) {
    r0.run(mac, stats);
    return;
  }
  // y += A·y: a worker would read elements another one writes, so neither
  // a chunk grid nor an owner-computes split is safe; run serially, named.
  if (const LinkedMac::Factor* f = overlapping_factor(mac)) {
    run_note_ = "target " + mac.target->name() + " overlaps factor " +
                f->view->name() + "; threads need an alias-free target";
    r0.run(mac, stats);
    return;
  }
  if (!parts_.empty()) {
    // Owner-computes needs the fused drain with the target scattered by
    // the leaf index — the hoisted-factor leaf form; anything else runs
    // serially, named.
    if (leaf_form(r0.lp_, mac) != LeafForm::kHoistedFactor) {
      run_note_ = "the multiply-accumulate does not take the fused drain "
                  "owner-computes runs";
      r0.run(mac, stats);
      return;
    }
    run_note_.clear();
    run_owner(mac, stats);
    return;
  }
  run_parallel(
      [&](LinkedRunner& r) {
        // Per-worker copy of the serial mac fast path: operand leaf slots
        // and the fused-drain plan resolved once per run per worker.
        r.mac_pslots_.clear();
        for (const LinkedMac::Factor& f : mac.factors)
          r.mac_pslots_.push_back(
              static_cast<std::size_t>(r.lp_.leaf_slot[f.slot]));
        const std::size_t tslot =
            static_cast<std::size_t>(r.lp_.leaf_slot[mac.target_slot]);
        r.prepare_outer(mac);
        return LinkedRunner::MacSink{r, mac, tslot};
      },
      stats);
}

}  // namespace bernoulli::compiler
