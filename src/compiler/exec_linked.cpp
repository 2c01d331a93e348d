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
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

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

// Lowers one operand to its BulkOp::at form. `slot_form(s)` gives the
// pos_ slot s as base + k*step (level 0's affine lowering). Bases form in
// 64 bits and must fit index_t over rows [0, rows).
template <class SlotForm>
void LinkedRunner::flatten(BulkOp& o, index_t rows, SlotForm slot_form) {
  using Src = BulkOp::Src;
  long long base = 0;
  long long step = 0;
  o.mp = o.src == Src::kDriver ? -1 : 0;
  o.mi = o.src == Src::kIdentity || o.src == Src::kAffine ? -1 : 0;
  if (o.src == Src::kConst) {
    std::tie(base, step) = slot_form(static_cast<int>(o.slot));
  } else if (o.src == Src::kAffine && o.parent_slot >= 0) {
    std::tie(base, step) = slot_form(o.parent_slot);
    base *= o.stride;
    step *= o.stride;
  }
  o.base = checked_index(base, "operand base");
  o.step = checked_index(step, "operand base step");
  checked_index(base + static_cast<long long>(std::max<index_t>(rows - 1, 0)) *
                           step,
                "operand base at the last outer row");
}

// Plans the fused outer-range drain for `mac`: engages exactly when
// leaf_form() gives the pair a fused form, which proves the shape the
// drain relies on — two enumerate levels, a dense outer range whose
// probes are rooted, both levels all-hit, a compressed, sliced or blocked
// leaf hanging off level 0, flat alias-free operands, every operand
// position bound at level 0 or derived at the leaf. Level 0 is then
// lowered to affine offsets (see outer_slots_) and each operand to its
// BulkOp form, so the drain computes every per-row position
// arithmetically. Everything else keeps the level stack, which stays the
// ground truth the drain must reproduce bitwise.
void LinkedRunner::prepare_outer(const LinkedMac& mac) {
  outer_ok_ = false;
  if (leaf_form(lp_, mac) == LeafForm::kPerElement) return;
  const LinkedLevel& l0 = lp_.levels[0];
  const LinkedLevel& lv = lp_.levels[1];
  // The dense root driver opens at base 0·stride, so its position is k;
  // a rooted identity/affine probe yields 0·stride + idx with idx = k.
  outer_slots_.clear();
  outer_slots_.push_back({l0.drivers[0].pos_slot, 0});
  for (const LinkedProbe& pr : l0.probes)
    outer_slots_.push_back({pr.access.pos_slot, 0});
  auto find = [this](int slot) {
    const auto s =
        std::find_if(outer_slots_.begin(), outer_slots_.end(),
                     [slot](const OuterSlot& o) { return o.slot == slot; });
    BERNOULLI_CHECK(s != outer_slots_.end());
    return s;
  };
  outer_parent_off_ = find(lv.drivers[0].parent_slot)->off;
  // Operands bound at level 0 read a lowered slot: base off, step 1.
  auto slot_form = [&](int slot) -> std::pair<long long, long long> {
    return {find(slot)->off, 1};
  };
  const index_t rows = l0.drivers[0].desc.extent;
  auto lower = [&](std::size_t rel_slot, const value_t* data) {
    BulkOp op;
    op.data = data;
    const int s = lp_.leaf_slot[rel_slot];
    if (s == lv.drivers[0].pos_slot) op.src = BulkOp::Src::kDriver;
    for (const LinkedProbe& pr : lv.probes) {
      if (pr.access.pos_slot != s) continue;
      if (pr.search.kind == relation::SearchSpec::Kind::kIdentity) {
        op.src = BulkOp::Src::kIdentity;
      } else {
        op.src = BulkOp::Src::kAffine;
        op.stride = pr.search.stride;
        op.parent_slot = pr.access.parent_slot;
      }
    }
    op.slot = static_cast<std::size_t>(s);  // read when kConst
    flatten(op, rows, slot_form);
    return op;
  };
  outer_target_ = lower(mac.target_slot, nullptr);
  outer_ops_.clear();
  for (const LinkedMac::Factor& f : mac.factors)
    outer_ops_.push_back(lower(f.slot, f.data.data()));
  // The target element is fixed per row when bound at level 0; no factor
  // aliases it (leaf_form proved that), so it may live in a register.
  bulk_acc_ok_ = outer_target_.src == BulkOp::Src::kConst;
  outer_ok_ = true;
}

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

  // ---- Loop bodies shared by every fused drain ---------------------
  // with_factors(ops, fn) picks the factor form once and calls
  // fn(factors): factors(k) is the product functor prod(pos, idx) at
  // outer row k — scale first, then every factor in order, operator()'s
  // multiplication order. Two-factor products specialize the SpMV operand
  // pairs — matrix values at the driver position times a dense vector at
  // the index (row-major) or at a per-row element (column-major, loaded
  // once per row: leaf_form admits no target that aliases it) — so they
  // load with no address selects, and a unit scale is not multiplied at
  // all (1·a == a exactly for every double a, so the product is bitwise
  // the same).
  template <class Fn>
  void with_factors(const std::vector<BulkOp>& ops, Fn&& fn) const {
    using Src = BulkOp::Src;
    const value_t scale = mac.scale;
    if (ops.size() != 2) {
      const BulkOp* const o = ops.data();
      const std::size_t n = ops.size();
      fn([=](index_t k) {
        return [=](index_t pos, index_t idx) {
          value_t prod = scale;
          for (std::size_t i = 0; i < n; ++i)
            prod *= o[i].data[o[i].at(k, pos, idx)];
          return prod;
        };
      });
      return;
    }
    const BulkOp o0 = ops[0];
    const BulkOp o1 = ops[1];
    const value_t* const d0 = o0.data;
    const value_t* const d1 = o1.data;
    auto pairs = [&](auto unit) {
      // scale · a, the product's first step.
      const auto first = [scale](value_t a) {
        if constexpr (decltype(unit)::value)
          return a;
        else
          return scale * a;
      };
      if (o0.src == Src::kDriver && o1.src == Src::kIdentity) {
        fn([=](index_t) {
          return [=](index_t pos, index_t idx) {
            value_t prod = first(d0[pos]);
            prod *= d1[idx];
            return prod;
          };
        });
      } else if (o0.src == Src::kDriver && o1.src == Src::kConst) {
        fn([=](index_t k) {
          const value_t v1 = d1[o1.row_base(k)];
          return [=](index_t pos, index_t) {
            value_t prod = first(d0[pos]);
            prod *= v1;
            return prod;
          };
        });
      } else {
        fn([=](index_t k) {
          return [=](index_t pos, index_t idx) {
            value_t prod = first(d0[o0.at(k, pos, idx)]);
            prod *= d1[o1.at(k, pos, idx)];
            return prod;
          };
        });
      }
    };
    if (scale == 1.0)
      pairs(std::true_type{});
    else
      pairs(std::false_type{});
  }

  // with_drain(t, ops, fn) picks the whole drain shape — the factor form
  // and the target form — once and calls fn(drain): drain(walk, k) folds
  // one leaf range at outer row k, where `walk(elem)` calls elem(idx, pos)
  // for every element in enumeration order. With a register-cacheable
  // target (bulk_acc_ok_) the target element is fixed for the range and
  // accumulates in a register — the same addition sequence into the same
  // element, so bitwise-identical to per-element stores; otherwise every
  // product stores through its own position.
  template <class Fn>
  void with_drain(const BulkOp& target, const std::vector<BulkOp>& ops,
                  Fn&& fn) const {
    value_t* const td = mac.target_data.data();
    const BulkOp t = target;
    const bool acc = r.bulk_acc_ok_;
    with_factors(ops, [&](auto factors) {
      if (acc) {
        fn([=](const auto& walk, index_t k) {
          value_t* const y = td + t.row_base(k);
          const auto prod = factors(k);
          value_t a = *y;
          walk([&](index_t idx, index_t pos) { a += prod(pos, idx); });
          *y = a;
        });
      } else if (t.src == BulkOp::Src::kIdentity) {
        // Column-major SpMV scatters into a dense vector at the index.
        fn([=](const auto& walk, index_t k) {
          const auto prod = factors(k);
          walk([&](index_t idx, index_t pos) { td[idx] += prod(pos, idx); });
        });
      } else {
        fn([=](const auto& walk, index_t k) {
          const auto prod = factors(k);
          walk([&](index_t idx, index_t pos) {
            td[t.at(k, pos, idx)] += prod(pos, idx);
          });
        });
      }
    });
  }

  // Element walks for the drains. A flat range [k0, k1) of a cursor
  // shape; a register-blocked range, lanes [cc0, c) of block b0 through
  // lanes [0, ccN) of block bN, with each r x c block's column base and
  // value base hoisted — no div/mod per block or per lane.
  template <class IndexOf, class PosOf>
  static auto flat_walk(IndexOf index_of, PosOf pos_of, index_t k0,
                        index_t k1) {
    return [=](auto&& elem) {
      for (index_t k = k0; k < k1; ++k) elem(index_of(k), pos_of(k));
    };
  }
  static auto blocked_walk(const index_t* ind, index_t c, index_t bsz,
                           index_t rofs, index_t b0, index_t cc0, index_t bN,
                           index_t ccN) {
    return [=](auto&& elem) {
      for (index_t b = b0; b <= bN; ++b) {
        const index_t jb = ind[b] * c;      // first lane index of block
        const index_t pb = b * bsz + rofs;  // this row's value base
        const index_t hi = b == bN ? ccN : c;
        for (index_t cc = b == b0 ? cc0 : 0; cc < hi; ++cc)
          elem(jb + cc, pb + cc);
      }
    };
  }

  // BCSR block-row form of the fused drain: block rows [q0, q0 + nq),
  // outer rows from k, each block read once for all N of its rows. Every
  // row keeps its own accumulator and still sums block by block and lane
  // by lane, in the per-row walk's multiplication order, so the result is
  // bitwise the per-row walk's. Only for a register-cacheable target
  // (bulk_acc_ok_): a store to one row must not be visible to another
  // row's products. `book(n, rows)` books rows leaf ranges of n tuples.
  template <int N, class Book>
  void block_rows(index_t q0, index_t nq, index_t k, Book&& book) const {
    const relation::LevelDescriptor& leaf = r.lp_.levels[1].drivers[0].desc;
    const index_t* const ptr = leaf.ptr;
    const index_t* const ind = leaf.ind;
    value_t* const td = mac.target_data.data();
    const BulkOp t = r.outer_target_;
    with_factors(r.outer_ops_, [&](auto factors) {
      for (index_t q = q0; q < q0 + nq; ++q, k += N) {
        const index_t b0 = ptr[q];
        const index_t b1 = ptr[q + 1];
        book((b1 - b0) * N, N);
        if (b1 == b0) continue;
        const auto prods = [&]<std::size_t... R>(std::index_sequence<R...>) {
          return std::array{factors(k + static_cast<index_t>(R))...};
        }(std::make_index_sequence<N>{});
        value_t a[N];
        for (int rr = 0; rr < N; ++rr) a[rr] = td[t.row_base(k + rr)];
        for (index_t b = b0; b < b1; ++b) {
          const index_t jb = ind[b] * N;    // first lane index of block
          const index_t pb = b * (N * N);  // block's value base
          for (int rr = 0; rr < N; ++rr)
            for (int cc = 0; cc < N; ++cc)
              a[rr] += prods[static_cast<std::size_t>(rr)](pb + rr * N + cc,
                                                          jb + cc);
        }
        for (int rr = 0; rr < N; ++rr) td[t.row_base(k + rr)] = a[rr];
      }
    });
  }

  // Drains outer rows [k0, k1) through the fused loop and returns the leaf
  // tuples drained. The drain shape is chosen once for the range, and
  // every per-row position comes from level 0's affine lowering: per row
  // there is no call and no operand-form branch, only the leaf segment
  // bounds, the drain body over that segment and (kFanout) the row's
  // level-1 fan-out sample. A compressed row k walks its whole segment,
  // or with `part` an owner-computes worker's share [lo[p], hi[p]) of it,
  // at parent p = outer_parent_off_ + k.
  template <bool kFanout>
  long long drain_rows(index_t k0, index_t k1,
                       const OwnerPart* part = nullptr) const {
    const relation::LevelDescriptor& leaf = r.lp_.levels[1].drivers[0].desc;
    long long* const fan1 = r.rec_.fanout_level(1);
    using K = relation::LevelDescriptor::Kind;
    const index_t p0 = r.outer_parent_off_ + k0;  // leaf parent at row k0
    const index_t* const ptr = leaf.ptr;
    const index_t* const ind = leaf.ind;
    long long w = 0;  // leaf tuples over the range
    auto book = [&](index_t n, index_t rows) {
      w += static_cast<long long>(n) * rows;
      if constexpr (kFanout)
        fan1[static_cast<std::size_t>(
            support::Log2Histogram::bucket_of(n))] += rows;
    };

    if (leaf.kind == K::kBlocked) {
      // The block row and this row's value offset within it are carried
      // from row to row: no div/mod per row.
      const index_t br = leaf.block_r;
      const index_t bc = leaf.block_c;
      const index_t bsz = br * bc;
      index_t q = p0 / br;
      index_t rofs = p0 % br * bc;
      auto per_row = [&](index_t ka, index_t kb) {
        if (ka >= kb) return;
        with_drain(r.outer_target_, r.outer_ops_, [&](const auto& drain) {
          for (index_t k = ka; k < kb; ++k) {
            const index_t b0 = ptr[q];
            const index_t b1 = ptr[q + 1];
            if (b1 > b0)
              drain(blocked_walk(ind, bc, bsz, rofs, b0, 0, b1 - 1, bc), k);
            book((b1 - b0) * bc, 1);
            rofs += bc;
            if (rofs == bsz) {
              rofs = 0;
              ++q;
            }
          }
        });
      };
      index_t k = k0;
      if (r.bulk_acc_ok_ && br == bc && br >= 2 && br <= 4) {
        // Rows up to the first block-row boundary walk per row; then
        // whole block rows at once; a partial last block row per row.
        const index_t head =
            std::min(k1, rofs == 0 ? k : k + (bsz - rofs) / bc);
        per_row(k, head);
        k = head;
        const index_t nq = (k1 - k) / br;
        if (nq > 0) {
          if (br == 2) block_rows<2>(q, nq, k, book);
          else if (br == 3) block_rows<3>(q, nq, k, book);
          else block_rows<4>(q, nq, k, book);
          q += nq;
          k += nq * br;
        }
      }
      per_row(k, k1);
      return w;
    }
    with_drain(r.outer_target_, r.outer_ops_, [&](const auto& drain) {
      if (leaf.kind == K::kSliced) {
        // A row's entries sit C lanes apart from its base, ascending k.
        const index_t cw = leaf.chunk;
        for (index_t k = k0; k < k1; ++k) {
          const index_t parent = p0 + (k - k0);
          const index_t base = leaf.off[parent];
          const index_t n = leaf.len[parent];
          if (n > 0)
            drain(flat_walk(
                      [ind, base, cw](index_t e) { return ind[base + e * cw]; },
                      [base, cw](index_t e) { return base + e * cw; }, 0, n),
                  k);
          book(n, 1);
        }
      } else {
        const index_t* const lo = part ? part->lo : ptr;
        const index_t* const hi = part ? part->hi : ptr + 1;
        for (index_t k = k0; k < k1; ++k) {
          const index_t parent = p0 + (k - k0);
          const index_t s0 = lo[parent];
          const index_t s1 = hi[parent];
          if (s1 > s0)
            drain(flat_walk([ind](index_t e) { return ind[e]; },
                            [](index_t e) { return e; }, s0, s1),
                  k);
          book(s1 - s0, 1);
        }
      }
    });
    return w;
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
  // drain_rows loop instead of one next_binding / open_frame /
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
    const long long w = drain_rows<true>(k0, k1);
    cur.cur = k1;
    // Leave level 0's bindings at the last row, as the per-row path does.
    r.vars_[static_cast<std::size_t>(lv0.var_slot)] = k1 - 1;
    for (const OuterSlot& s : r.outer_slots_)
      r.pos_[static_cast<std::size_t>(s.slot)] = s.off + k1 - 1;

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
    const long long w =
        part.col_hi > part.col_lo
            ? drain_rows<false>(part.col_lo, part.col_hi, &part)
            : 0;
    const index_t* const ptr = r.lp_.levels[1].drivers[0].desc.ptr;
    long long* const fan1 = r.rec_.fanout_level(1);
    for (index_t k = part.fan_lo; k < part.fan_hi; ++k) {
      const index_t p = r.outer_parent_off_ + k;
      ++fan1[static_cast<std::size_t>(
          support::Log2Histogram::bucket_of(ptr[p + 1] - ptr[p]))];
    }
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
