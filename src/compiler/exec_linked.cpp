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
//   - counters and fan-out histograms accumulate in plain locals and
//     flush once per run instead of one relaxed-atomic add per event.
//
// ParallelRunner (bottom of this file) workshares the outermost
// enumerate level across the shared thread pool when the link-time
// legality check passed (LinkedPlan::parallel_ok): a deterministic chunk
// grid over the outer cursor range, per-worker runners with private
// scratch and counter/fan-out shards, merged and flushed once per run so
// observability stays exact — same executor.* deltas, same histogram
// samples, same trace span totals as a serial run, for any thread count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/link.hpp"
#include "support/counters.hpp"
#include "support/error.hpp"
#include "support/histogram.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace bernoulli::compiler {

namespace {

// Same registry names as the interpreter (executor.cpp) — by-name lookup
// yields the same Counter objects, so the two engines feed one ledger.
struct LinkedCounters {
  support::Counter& runs = support::counter("executor.runs");
  support::Counter& tuples = support::counter("executor.tuples");
  support::Counter& enumerated = support::counter("executor.enumerated");
  support::Counter& merge_steps = support::counter("executor.merge_steps");
  support::Counter& probe_hits = support::counter("executor.probe_hits");
  support::Counter& probe_misses = support::counter("executor.probe_misses");
  support::Counter& fill_ins = support::counter("executor.fill_ins");
  support::Counter& merge_segment_bytes =
      support::counter("executor.merge_segment_bytes");
};

LinkedCounters& linked_counters() {
  static LinkedCounters c;
  return c;
}

// Serving-era metrics, booked once per run at the same flush site as the
// executor.* counters so the two ledgers reconcile: latency histogram
// count == executor.runs delta, histogram sum == execute.wall_ns (the same
// integer nanoseconds recorded into both). Same names across the
// interpreter, linked, threaded and specialized engines.
struct ServeMetrics {
  support::LatencyHistogram& latency =
      support::metric_latency("execute.latency");
  support::MetricRate& wall_ns = support::metric_rate("execute.wall_ns");
  support::MetricRate& model_bytes =
      support::metric_rate("execute.model_bytes");
  support::MetricRate& model_flops =
      support::metric_rate("execute.model_flops");
  support::TimeCounter& wall_seconds =
      support::time_counter("executor.wall_seconds");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

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

std::atomic<bool> g_bulk_drain{true};

// Half-open value ranges [a, a+an) and [b, b+bn) overlap. std::less gives
// the pointer comparison a defined total order across unrelated arrays.
bool ranges_overlap(const value_t* a, std::size_t an, const value_t* b,
                    std::size_t bn) {
  if (an == 0 || bn == 0) return false;
  std::less<const value_t*> lt;
  return !(lt(a + an - 1, b) || lt(b + bn - 1, a));
}

}  // namespace

void set_bulk_drain(bool enabled) {
  g_bulk_drain.store(enabled, std::memory_order_relaxed);
}

bool bulk_drain_enabled() {
  return g_bulk_drain.load(std::memory_order_relaxed);
}

bool LinkedRunner::resolve_probes(const LinkedLevel& lv, LocalCounters& c) {
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

bool LinkedRunner::next_binding(std::size_t d, LocalCounters& c) {
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

void LinkedRunner::close_frame(std::size_t d, LocalCounters& c,
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
    ++fanout_local_[d][static_cast<std::size_t>(
        support::Log2Histogram::bucket_of(f.inv_produced))];
  }
  if (stats) {
    stats->levels[d].enumerated += f.inv_enumerated;
    stats->levels[d].produced += f.inv_produced;
  }
}

void LinkedRunner::flush(const LocalCounters& c, RunStats* stats,
                         long long wall_ns) {
  if (capture_ != nullptr) {
    capture_->tuples = c.tuples;
    capture_->enumerated = c.enumerated;
    capture_->merge_steps = c.merge_steps;
    capture_->probe_hits = c.probe_hits;
    capture_->probe_misses = c.probe_misses;
    capture_->fill_ins = c.fill_ins;
    capture_->merge_segment_bytes = c.merge_segment_bytes;
    capture_->fanout = fanout_local_;  // copy BEFORE booking zeroes it
  }
  // The whole group below — latency sample, wall_ns, counters, fan-out,
  // profile — commits under the observability commit lock so a concurrent
  // metrics_snapshot() can never see half of this run (the
  // execute.latency.sum_ns == execute.wall_ns invariant).
  const std::unique_lock<std::mutex> commit = support::metrics_commit_lock();
  ServeMetrics& m = serve_metrics();
  m.latency.record_ns(wall_ns);
  m.wall_ns.add(wall_ns);
  m.wall_seconds.add(static_cast<double>(wall_ns) * 1e-9);
  if (lp_.footprint.exact) {
    m.model_bytes.add(lp_.footprint.total_bytes());
    m.model_flops.add(lp_.footprint.flops);
  }
  LinkedCounters& ctr = linked_counters();
  ctr.runs.add(1);
  ctr.tuples.add(c.tuples);
  ctr.enumerated.add(c.enumerated);
  ctr.merge_steps.add(c.merge_steps);
  ctr.probe_hits.add(c.probe_hits);
  ctr.probe_misses.add(c.probe_misses);
  ctr.fill_ins.add(c.fill_ins);
  ctr.merge_segment_bytes.add(c.merge_segment_bytes);
  for (std::size_t d = 0; d < fanout_local_.size(); ++d) {
    for (int b = 0; b < support::Log2Histogram::kBuckets; ++b) {
      long long& n = fanout_local_[d][static_cast<std::size_t>(b)];
      if (n == 0) continue;
      // Bucket b's representative value: bucket_of(rep) == b.
      lp_.levels[d].fanout->add(b == 0 ? 0 : (1LL << (b - 1)), n);
      n = 0;
    }
  }
  if (stats) stats->tuples = c.tuples;
  // Per-level time attribution rides the same once-per-run flush; the
  // scratch is zero unless profiling was enabled during the run.
  if (prof_.any()) {
    support::profile_flush(prof_, wall_ns);
    prof_.reset(0);
  }
}

// Classifies the mac operands against the leaf level so try_bulk (below)
// can stream whole cursor ranges. Bulk drains engage only when:
//   - the leaf level is an enumerate (drain_enumerate_leaf's precondition);
//   - every leaf probe is an identity/affine bounds check (no binary
//     searches, no virtual probes, no fill-in inserts) — those are the
//     probes whose all-hit outcome is provable from an index range;
//   - the target and every factor expose flat value arrays (no virtual
//     value access mid-loop).
// Everything else falls back to the per-element path, which stays the
// ground truth the bulk path must reproduce bitwise.
void LinkedRunner::prepare_bulk(const LinkedMac& mac) {
  bulk_ok_ = false;
  bulk_acc_ok_ = false;
  bulk_ops_.clear();
  if (lp_.levels.empty()) return;
  const std::size_t leaf = lp_.levels.size() - 1;
  const LinkedLevel& lv = lp_.levels[leaf];
  if (lv.method != JoinMethod::kEnumerate) return;
  for (const LinkedProbe& pr : lv.probes) {
    if (pr.insert_on_miss) return;
    if (pr.search.kind != relation::SearchSpec::Kind::kIdentity &&
        pr.search.kind != relation::SearchSpec::Kind::kAffine)
      return;
  }
  if (mac.target_data.empty()) return;
  for (const LinkedMac::Factor& f : mac.factors)
    if (f.data.empty()) return;

  const int driver_slot = lv.drivers[0].pos_slot;
  auto classify = [&](std::size_t rel_slot) {
    BulkOp op;
    const int s = lp_.leaf_slot[rel_slot];
    if (s == driver_slot) {
      op.src = BulkOp::Src::kDriver;
      return op;
    }
    for (const LinkedProbe& pr : lv.probes) {
      if (pr.access.pos_slot != s) continue;
      if (pr.search.kind == relation::SearchSpec::Kind::kIdentity) {
        op.src = BulkOp::Src::kIdentity;
      } else {
        op.src = BulkOp::Src::kAffine;
        op.stride = pr.search.stride;
        op.parent_slot = pr.access.parent_slot;
      }
      return op;
    }
    // Bound at an outer level: constant for the whole drain.
    op.src = BulkOp::Src::kConst;
    op.slot = static_cast<std::size_t>(s);
    return op;
  };

  bulk_target_ = classify(mac.target_slot);
  for (const LinkedMac::Factor& f : mac.factors) {
    BulkOp op = classify(f.slot);
    op.data = f.data.data();
    bulk_ops_.push_back(op);
  }
  bulk_ok_ = true;
  // The accumulator register cache is only safe when the target element is
  // fixed for the whole drain AND no factor can read the target storage
  // mid-loop (the deferred store would then be observable).
  bulk_acc_ok_ = bulk_target_.src == BulkOp::Src::kConst;
  for (const LinkedMac::Factor& f : mac.factors)
    if (ranges_overlap(mac.target_data.data(), mac.target_data.size(),
                       f.data.data(), f.data.size()))
      bulk_acc_ok_ = false;
}

// Classifies the whole plan for the chunk-wide sliced drain. It engages
// only for the shape where storage-order windows are provably equivalent
// to the per-row walk:
//   - two enumerate levels, one driver each: dense rows over a sliced
//     (SELL-C-sigma) leaf;
//   - the leaf qualifies for register-accumulated bulk drains with
//     exactly two factors, each reading pos (the driver's values) or idx
//     (a dense operand) directly — no per-row affine/const rebasing;
//   - every probe at BOTH levels is proved all-hit at link time and none
//     inserts, so window pre-resolution cannot miss or mutate storage.
// Everything else keeps the per-row path, which stays the ground truth
// the window drain must reproduce bitwise.
void LinkedRunner::prepare_chunk(const LinkedMac& mac) {
  (void)mac;
  chunk_ok_ = false;
  if (!bulk_ok_ || !bulk_acc_ok_) return;
  if (lp_.levels.size() != 2) return;
  const LinkedLevel& l0 = lp_.levels[0];
  const LinkedLevel& l1 = lp_.levels[1];
  if (l0.method != JoinMethod::kEnumerate ||
      l1.method != JoinMethod::kEnumerate)
    return;
  if (l0.drivers.size() != 1 || l1.drivers.size() != 1) return;
  if (!l0.probes.empty() && !l0.proved_all_hit) return;
  if (!l1.probes.empty() && !l1.proved_all_hit) return;
  for (const LinkedProbe& pr : l0.probes)
    if (pr.insert_on_miss) return;
  const relation::LevelDescriptor& d0 = l0.drivers[0].desc;
  const relation::LevelDescriptor& d1 = l1.drivers[0].desc;
  if (d0.kind != relation::LevelDescriptor::Kind::kDense) return;
  if (d1.kind != relation::LevelDescriptor::Kind::kSliced) return;
  if (d1.chunk <= 0 || d1.sigma <= 0 || d1.sigma % d1.chunk != 0) return;
  if (bulk_ops_.size() != 2) return;
  for (const BulkOp& o : bulk_ops_)
    if (o.src != BulkOp::Src::kDriver && o.src != BulkOp::Src::kIdentity)
      return;
  chunk_c_ = d1.chunk;
  chunk_sigma_ = d1.sigma;
  chunk_off_ = d1.off;
  chunk_len_ = d1.len;
  chunk_ind_ = d1.ind;
  chunk_ok_ = true;
}

// Classifies the whole plan for the fused outer-range drain. It engages
// only for the shape whose per-row work try_outer can do with no level
// stack:
//   - two enumerate levels, one driver each, the outer one a dense range;
//   - every probe at BOTH levels is proved all-hit at link time and none
//     inserts, so no row or leaf element can be filtered or fill in;
//   - the leaf driver is a compressed (CSR/CCS segment) or blocked (BCSR)
//     level, whose per-row segment bounds come straight from its ptr;
//   - the leaf qualifies for bulk drains (bulk_ok_).
// Operands bound at level 0 (kConst, kAffine) are listed in outer_vary_:
// the only ones re-flattened per row.
void LinkedRunner::prepare_outer() {
  outer_ok_ = false;
  outer_vary_.clear();
  if (!bulk_ok_ || lp_.levels.size() != 2) return;
  for (const LinkedLevel& lv : lp_.levels) {
    if (lv.method != JoinMethod::kEnumerate || lv.drivers.size() != 1) return;
    if (!lv.probes.empty() && !lv.proved_all_hit) return;
  }
  using K = relation::LevelDescriptor::Kind;
  if (lp_.levels[0].drivers[0].desc.kind != K::kDense) return;
  const relation::LevelDescriptor& leaf = lp_.levels[1].drivers[0].desc;
  if (leaf.kind != K::kCompressed &&
      !(leaf.kind == K::kBlocked && leaf.block_r > 0 && leaf.block_c > 0))
    return;
  auto vary = [&](BulkOp& o) {
    if (o.src == BulkOp::Src::kConst || o.src == BulkOp::Src::kAffine)
      outer_vary_.push_back(&o);
  };
  vary(bulk_target_);
  for (BulkOp& o : bulk_ops_) vary(o);
  outer_ok_ = true;
}

// The run(LinkedMac) sink. operator() is the per-element multiply-
// accumulate (unchanged semantics); try_bulk is the hook
// drain_enumerate_leaf offers a whole leaf invocation to. A local class
// cannot befriend templates, so this lives at class scope with full
// access to the runner internals.
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

  // Flattens one operand to its BulkOp::at form for the current bindings
  // (kConst slots and affine parents read from pos_).
  void refresh(BulkOp& o) const {
    switch (o.src) {
      case BulkOp::Src::kConst:
        o.base = r.pos_[o.slot];
        o.mp = 0;
        o.mi = 0;
        break;
      case BulkOp::Src::kDriver:
        o.base = 0;
        o.mp = -1;
        o.mi = 0;
        break;
      case BulkOp::Src::kIdentity:
        o.base = 0;
        o.mp = 0;
        o.mi = -1;
        break;
      case BulkOp::Src::kAffine:
        o.base = (o.parent_slot < 0
                      ? 0
                      : r.pos_[static_cast<std::size_t>(o.parent_slot)]) *
                 o.stride;
        o.mp = 0;
        o.mi = -1;
        break;
    }
  }
  void refresh_ops() const {
    refresh(r.bulk_target_);
    for (BulkOp& o : r.bulk_ops_) refresh(o);
  }

  // ---- Loop bodies shared by every bulk drain ----------------------
  // Drains one leaf range: `walk(elem)` calls elem(idx, pos) for every
  // element in enumeration order, and each product keeps operator()'s
  // multiplication order (scale first, factors in order). With a
  // register-cacheable target (bulk_acc_ok_) the target element is fixed
  // for the range and accumulates in a register — the same addition
  // sequence into the same element, so bitwise-identical to per-element
  // stores; otherwise every product stores through its own position.
  template <class Walk>
  void mac_range(const Walk& walk) const {
    value_t* const td = mac.target_data.data();
    const BulkOp t = r.bulk_target_;
    if (r.bulk_acc_ok_) {
      td[t.base] = products(walk, td[t.base],
                            [](value_t acc, index_t, index_t, value_t p) {
                              return acc + p;
                            });
    } else if (t.src == BulkOp::Src::kIdentity) {
      // Column-major SpMV scatters into a dense vector at the index.
      products(walk, 0.0, [td](value_t acc, index_t idx, index_t, value_t p) {
        td[idx] += p;
        return acc;
      });
    } else {
      products(walk, 0.0,
               [td, t](value_t acc, index_t idx, index_t pos, value_t p) {
                 td[t.at(pos, idx)] += p;
                 return acc;
               });
    }
  }

  // Folds every element's product into `acc = emit(acc, idx, pos, prod)`
  // (acc stays a local, so it lives in a register). Two-factor products
  // specialize the SpMV operand pairs — matrix values at the driver
  // position times a dense vector at the index (row-major) or at a fixed
  // element (column-major) — so they load with no address selects.
  template <class Walk, class Emit>
  value_t products(const Walk& walk, value_t acc, Emit emit) const {
    const value_t scale = mac.scale;
    if (r.bulk_ops_.size() != 2) {
      walk([&](index_t idx, index_t pos) {
        value_t prod = scale;
        for (const BulkOp& o : r.bulk_ops_) prod *= o.data[o.at(pos, idx)];
        acc = emit(acc, idx, pos, prod);
      });
      return acc;
    }
    const BulkOp o0 = r.bulk_ops_[0];
    const BulkOp o1 = r.bulk_ops_[1];
    auto two = [&](auto f0, auto f1) {
      walk([&](index_t idx, index_t pos) {
        value_t prod = scale;
        prod *= f0(pos, idx);
        prod *= f1(pos, idx);
        acc = emit(acc, idx, pos, prod);
      });
    };
    const value_t* const d0 = o0.data;
    if (o0.src == BulkOp::Src::kDriver && o1.src == BulkOp::Src::kIdentity)
      two([d0](index_t pos, index_t) { return d0[pos]; },
          [d1 = o1.data](index_t, index_t idx) { return d1[idx]; });
    else if (o0.src == BulkOp::Src::kDriver && o1.src == BulkOp::Src::kConst)
      two([d0](index_t pos, index_t) { return d0[pos]; },
          [p1 = o1.data + o1.base](index_t, index_t) { return *p1; });
    else
      two([o0](index_t pos, index_t idx) { return o0.data[o0.at(pos, idx)]; },
          [o1](index_t pos, index_t idx) { return o1.data[o1.at(pos, idx)]; });
    return acc;
  }

  // Element walks for mac_range. A flat range [k0, k1) of a cursor shape;
  // a register-blocked range, lanes [cc0, c) of block b0 through lanes
  // [0, ccN) of block bN, with each r x c block's column base and value
  // base hoisted — no div/mod per block or per lane.
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

  // Streams the whole remaining cursor range of leaf invocation `d` as one
  // fused loop, booking counters/stats in bulk. Returns false (nothing
  // consumed, nothing booked) when the invocation is not provably all-hit,
  // so the caller's per-element path keeps exact miss semantics.
  bool try_bulk(std::size_t d, LocalCounters& c) const {
    if (!r.bulk_ok_ || !bulk_drain_enabled()) return false;
    Frame& f = r.frames_[d];
    const LinkedLevel& lv = r.lp_.levels[d];
    relation::Cursor& cur = f.cursors[0];
    const index_t k0 = cur.cur;
    const index_t k1 = cur.end;
    if (k1 <= k0) return false;
    // proved_all_hit settled the window at link time from the level's
    // whole enumerable range; only unproved levels pay the per-invocation
    // min/max scan. Identity/affine probes hit iff 0 <= idx < extent, so
    // range membership of [mn, mx] settles every element of an invocation.
    const bool scan = !lv.probes.empty() && !lv.proved_all_hit;
    auto probes_hit = [&](index_t mn, index_t mx) {
      for (const LinkedProbe& pr : lv.probes)
        if (mn < 0 || mx >= pr.search.extent) return false;
      return true;
    };
    // Consume the invocation, booked in bulk: every element enumerates,
    // hits every probe, and produces — identical totals to the per-element
    // path in any order, because no element misses.
    auto consume = [&] {
      const long long n = k1 - k0;
      f.inv_enumerated += n;
      f.inv_produced += n;
      c.tuples += n;
      c.probe_hits += n * static_cast<long long>(lv.probes.size());
      refresh_ops();
      cur.cur = k1;
    };

    auto flat = [&](auto index_of, auto pos_of, bool ascending) -> bool {
      if (scan) {
        index_t mn, mx;
        if (ascending) {
          mn = index_of(k0);
          mx = index_of(k1 - 1);
        } else {
          mn = mx = index_of(k0);
          for (index_t k = k0 + 1; k < k1; ++k) {
            const index_t v = index_of(k);
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
        }
        if (!probes_hit(mn, mx)) return false;
      }
      consume();
      mac_range(flat_walk(index_of, pos_of, k0, k1));
      return true;
    };

    switch (cur.kind) {
      case relation::Cursor::Kind::kDenseRange: {
        const index_t base = cur.base;
        return flat([](index_t k) { return k; },
                    [base](index_t k) { return base + k; },
                    /*ascending=*/true);
      }
      case relation::Cursor::Kind::kIndArray: {
        const index_t* ind = cur.ind;
        return flat([ind](index_t k) { return ind[k]; },
                    [](index_t k) { return k; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kStrided: {
        const index_t* ind = cur.ind;
        const index_t base = cur.base;
        const index_t stride = cur.stride;
        return flat([=](index_t k) { return ind[base + k * stride]; },
                    [=](index_t k) { return base + k * stride; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kOffsets: {
        const index_t* ind = cur.ind;
        const index_t* off = cur.off;
        const index_t base = cur.base;
        return flat([=](index_t k) { return ind[off[k] + base]; },
                    [=](index_t k) { return off[k] + base; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kBuffered: {
        const relation::IndexPos* buf = cur.buf;
        return flat([buf](index_t k) { return buf[k].idx; },
                    [buf](index_t k) { return buf[k].pos; },
                    /*ascending=*/false);
      }
      case relation::Cursor::Kind::kBlocked: {
        // The lane range may start or end mid-block (k0/k1 are arbitrary
        // lane counters), so the end blocks are found once here.
        const index_t* ind = cur.ind;
        const index_t c0 = cur.stride;  // block width (lanes per block)
        const index_t b0 = cur.base + k0 / c0;
        const index_t bN = cur.base + (k1 - 1) / c0;
        if (scan) {
          // Conservative lane window from the block columns this range
          // touches: every lane of block b lies in [ind[b]*c, ind[b]*c+c).
          index_t mnb = ind[b0];
          index_t mxb = ind[b0];
          for (index_t b = b0 + 1; b <= bN; ++b) {
            mnb = std::min(mnb, ind[b]);
            mxb = std::max(mxb, ind[b]);
          }
          if (!probes_hit(mnb * c0, mxb * c0 + c0 - 1)) return false;
        }
        consume();
        mac_range(blocked_walk(ind, c0, cur.bsz, cur.rofs, b0, k0 % c0, bN,
                               (k1 - 1) % c0 + 1));
        return true;
      }
      case relation::Cursor::Kind::kSingleton:
        return false;  // one element: the per-element path is already tight
    }
    return false;
  }

  // Fused outer-range drain: run_span offers the open level-0 frame
  // whenever the engine sits at the outer level. When prepare_outer
  // engaged, the whole remaining outer range [cur, end) drains in one
  // loop — per row only the level-0 bindings and probes, the leaf
  // segment bounds, the try_bulk loop body over that segment and the
  // per-row bookings — instead of one next_binding / open_frame /
  // drain_enumerate_leaf / close_frame round trip per row. Rows drain in
  // order and each row's segment runs the very loop body try_bulk would,
  // so outputs are bitwise-identical; counters, the level-1 fan-out
  // samples, per-level stats and profile work counts book exactly what
  // the per-row path books (order-invariant totals). Chunk clamps are
  // respected: only the frame's own [cur, end) is consumed.
  void try_outer(LocalCounters& c, RunStats* st) const {
    if (!r.outer_ok_ || !bulk_drain_enabled()) return;
    relation::Cursor& cur = r.frames_[0].cursors[0];  // a dense row range
    if (!cur.valid()) return;
    const LinkedLevel& lv0 = r.lp_.levels[0];
    const LinkedLevel& lv1 = r.lp_.levels[1];
    const relation::LevelDescriptor& leaf = lv1.drivers[0].desc;
    const std::size_t var0 = static_cast<std::size_t>(lv0.var_slot);
    const std::size_t pos0 = static_cast<std::size_t>(lv0.drivers[0].pos_slot);
    const int pslot = lv1.drivers[0].parent_slot;
    long long* const fan1 = r.fanout_local_[1].data();
    const bool blocked =
        leaf.kind == relation::LevelDescriptor::Kind::kBlocked;
    const bool prof = support::profiling_enabled();
    const long long prof_t0 = prof ? support::profile_now_ns() : 0;
    refresh_ops();  // operands not bound at level 0 are fixed from here on
    const index_t k0 = cur.cur;
    const index_t k1 = cur.end;
    long long w = 0;  // leaf tuples over the range

    // `segment(parent)` drains one row's leaf segment and returns its size.
    auto rows = [&](auto segment) {
      for (index_t k = k0; k < k1; ++k) {
        r.vars_[var0] = k;
        r.pos_[pos0] = cur.base + k;
        // Proved all-hit: books the level-0 hits and fills probe slots.
        (void)r.resolve_probes(lv0, c);
        for (BulkOp* o : r.outer_vary_) refresh(*o);
        const index_t n = segment(
            pslot < 0 ? 0 : r.pos_[static_cast<std::size_t>(pslot)]);
        w += n;
        ++fan1[static_cast<std::size_t>(
            support::Log2Histogram::bucket_of(n))];
      }
    };
    if (blocked) {
      const index_t br = leaf.block_r;
      const index_t bc = leaf.block_c;
      rows([&](index_t parent) -> index_t {
        const index_t b0 = leaf.ptr[parent / br];
        const index_t b1 = leaf.ptr[parent / br + 1];
        if (b1 > b0)
          mac_range(blocked_walk(leaf.ind, bc, br * bc, (parent % br) * bc,
                                 b0, 0, b1 - 1, bc));
        return (b1 - b0) * bc;
      });
    } else {
      const index_t* ind = leaf.ind;
      rows([&](index_t parent) -> index_t {
        const index_t s0 = leaf.ptr[parent];
        const index_t s1 = leaf.ptr[parent + 1];
        if (s1 > s0)
          mac_range(flat_walk([ind](index_t k) { return ind[k]; },
                              [](index_t k) { return k; }, s0, s1));
        return s1 - s0;
      });
    }
    cur.cur = k1;

    // Per-row totals, booked once: level 0 enumerates and produces every
    // row (closed by close_frame(0)); level 1 closes one frame per row.
    r.frames_[0].inv_enumerated += k1 - k0;
    r.frames_[0].inv_produced += k1 - k0;
    c.tuples += w;
    c.enumerated += w;
    c.probe_hits += w * static_cast<long long>(lv1.probes.size());
    if (st) {
      st->levels[1].enumerated += w;
      st->levels[1].produced += w;
    }
    if (prof) {
      // One exact interval per drained range, like the sliced drain.
      const int kind = blocked ? support::kProfBlocked : support::kProfBulk;
      r.prof_.add_work(0, support::kProfTuple, k1 - k0);
      r.prof_.add_work(1, kind, w);
      if (w > 0)
        r.prof_.book_ns(1, kind, support::profile_now_ns() - prof_t0, w);
    }
  }


  // Chunk-wide sliced drain: run_span offers the open level-0 frame
  // whenever the engine sits at the outer level. Consumes whole sigma-
  // aligned windows of outer rows, draining each storage chunk with ONE
  // unit-stride pass over its padded lane-interleaved storage instead of
  // a lane-strided walk per row. Padded lanes are never touched: within a
  // chunk the lanes are stored longest-first, so lanes retire as a suffix
  // while k ascends. Each lane accumulates its row in ascending k into a
  // private register — bitwise-identical stores to the per-row drains —
  // and rows are pre-resolved per window, so every counter, fan-out
  // sample and per-level stat books exactly what the per-row path books,
  // merely reordered across rows (all order-invariant totals). Rows it
  // does not consume — an unaligned thread-chunk prefix, the tail, a
  // window whose chunk shape does not verify — are left untouched for
  // the per-row path.
  void try_chunk(LocalCounters& c, RunStats* st) const {
    if (!r.chunk_ok_ || !bulk_drain_enabled()) return;
    Frame& f0 = r.frames_[0];
    relation::Cursor& cur = f0.cursors[0];
    const index_t cw = r.chunk_c_;
    const index_t sigma = r.chunk_sigma_;
    if (cur.cur % sigma != 0 || cur.end - cur.cur < sigma) return;
    const index_t* off = r.chunk_off_;
    const index_t* len = r.chunk_len_;
    const index_t* ind = r.chunk_ind_;
    const LinkedLevel& lv0 = r.lp_.levels[0];
    const LinkedLevel& lv1 = r.lp_.levels[1];
    const std::size_t pos0 =
        static_cast<std::size_t>(lv0.drivers[0].pos_slot);
    const std::size_t var0 = static_cast<std::size_t>(lv0.var_slot);
    const std::size_t pslot =
        static_cast<std::size_t>(lv1.drivers[0].parent_slot);
    const long long nprobes1 = static_cast<long long>(lv1.probes.size());
    value_t* const td = mac.target_data.data();
    const value_t scale = mac.scale;
    // Factor forms are parent-independent here (prepare_chunk rejected
    // kConst/kAffine), so flatten once: pos-sourced (driver values) or
    // idx-sourced (dense operand).
    auto flat = [](const BulkOp& o) {
      BulkOp f = o;
      f.base = 0;
      f.mp = o.src == BulkOp::Src::kDriver ? -1 : 0;
      f.mi = o.src == BulkOp::Src::kIdentity ? -1 : 0;
      return f;
    };
    const BulkOp o0 = flat(r.bulk_ops_[0]);
    const BulkOp o1 = flat(r.bulk_ops_[1]);

    auto& ord = r.chunk_ord_;
    auto& rbase = r.chunk_base_;
    auto& rlen = r.chunk_lens_;
    auto& tpos = r.chunk_tpos_;
    auto& acc = r.chunk_acc_;
    const std::size_t S = static_cast<std::size_t>(sigma);
    ord.resize(S);
    rbase.resize(S);
    rlen.resize(S);
    tpos.resize(S);
    acc.resize(static_cast<std::size_t>(cw));

    // Sliced drains book ONE exact interval per invocation (covering every
    // window it consumes) — no sampling needed: two stamps amortize over
    // sigma rows of work. Outer rows consumed here also count as level-0
    // work so per-level work totals match the per-row path.
    const bool prof = support::profiling_enabled();
    const long long prof_t0 = prof ? support::profile_now_ns() : 0;
    const long long prof_w0 = prof ? c.tuples : 0;
    long long prof_rows = 0;
    const auto prof_book = [&] {
      if (!prof || prof_rows == 0) return;
      const long long w = c.tuples - prof_w0;
      r.prof_.add_work(0, support::kProfTuple, prof_rows);
      r.prof_.add_work(1, support::kProfSliced, w);
      r.prof_.book_ns(1, support::kProfSliced,
                      support::profile_now_ns() - prof_t0, w);
    };

    while (cur.cur % sigma == 0 && cur.end - cur.cur >= sigma) {
      const index_t w0 = cur.cur;
      // Pre-resolve the window's rows before booking any frame state: a
      // filtered row or an unverifiable chunk shape restores the counter
      // snapshot and leaves the whole window to the per-row path.
      const LocalCounters saved = c;
      bool ok = true;
      for (index_t s = 0; s < sigma; ++s) {
        const index_t row = w0 + s;
        r.vars_[var0] = row;
        r.pos_[pos0] = cur.base + row;
        if (!r.resolve_probes(lv0, c)) {
          ok = false;
          break;
        }
        const index_t prow = r.pos_[pslot];
        const std::size_t us = static_cast<std::size_t>(s);
        ord[us] = s;
        rbase[us] = off[prow];
        rlen[us] = len[prow];
        tpos[us] = r.pos_[tslot];
      }
      // Storage order: ascending per-row base recovers (chunk, lane).
      // Insertion sort — sigma is small.
      for (index_t a = 1; ok && a < sigma; ++a) {
        const index_t v = ord[static_cast<std::size_t>(a)];
        index_t b = a;
        for (; b > 0 && rbase[static_cast<std::size_t>(
                            ord[static_cast<std::size_t>(b - 1)])] >
                            rbase[static_cast<std::size_t>(v)];
             --b)
          ord[static_cast<std::size_t>(b)] =
              ord[static_cast<std::size_t>(b - 1)];
        ord[static_cast<std::size_t>(b)] = v;
      }
      // Verify the shape this drain assumes: each storage-order group of
      // cw rows shares one chunk (lane bases contiguous) and lane lengths
      // never increase, so padded lanes retire as a suffix.
      auto slot = [&](index_t j) {
        return static_cast<std::size_t>(ord[static_cast<std::size_t>(j)]);
      };
      for (index_t j = 0; ok && j < sigma; j += cw) {
        const index_t cb = rbase[slot(j)];
        for (index_t lane = 0; lane < cw; ++lane) {
          if (rbase[slot(j + lane)] != cb + lane ||
              (lane > 0 &&
               rlen[slot(j + lane)] > rlen[slot(j + lane - 1)])) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) {
        c = saved;
        prof_book();
        return;
      }

      // Book the window: per row, exactly what next_binding plus a
      // per-row bulk drain book (probe hits already counted above).
      f0.inv_enumerated += sigma;
      f0.inv_produced += sigma;
      for (std::size_t us = 0; us < S; ++us) {
        const long long n = rlen[us];
        c.tuples += n;
        c.enumerated += n;
        c.probe_hits += n * nprobes1;
        ++r.fanout_local_[1][static_cast<std::size_t>(
            support::Log2Histogram::bucket_of(n))];
        if (st) {
          st->levels[1].enumerated += n;
          st->levels[1].produced += n;
        }
      }
      // One unit-stride pass per chunk over its padded storage.
      for (index_t j = 0; j < sigma; j += cw) {
        const index_t cb = rbase[slot(j)];
        for (index_t lane = 0; lane < cw; ++lane)
          acc[static_cast<std::size_t>(lane)] = td[tpos[slot(j + lane)]];
        const index_t kmax = rlen[slot(j)];
        index_t active = cw;
        for (index_t k = 0; k < kmax; ++k) {
          while (active > 0 && rlen[slot(j + active - 1)] <= k) --active;
          const index_t p = cb + k * cw;
          for (index_t lane = 0; lane < active; ++lane) {
            const index_t pp = p + lane;
            const index_t idx = ind[pp];
            value_t prod = scale;
            prod *= o0.data[o0.at(pp, idx)];
            prod *= o1.data[o1.at(pp, idx)];
            acc[static_cast<std::size_t>(lane)] += prod;
          }
        }
        for (index_t lane = 0; lane < cw; ++lane)
          td[tpos[slot(j + lane)]] = acc[static_cast<std::size_t>(lane)];
      }
      cur.cur += sigma;
      prof_rows += sigma;
    }
    prof_book();
  }
};

template <class Sink>
void LinkedRunner::drain_enumerate_leaf(std::size_t d, LocalCounters& c,
                                        Sink&& sink, bool prof_time) {
  // Drain-kind attribution: the whole invocation books one work count (and,
  // inside a sampled bracket, one timestamp pair — never per tuple) under
  // the kind that actually drained it.
  const bool profiling = support::profiling_enabled();
  const long long prof_w0 = profiling ? c.tuples : 0;
  const long long prof_t0 = prof_time ? support::profile_now_ns() : 0;
  if constexpr (requires { sink.try_bulk(d, c); }) {
    const bool blocked =
        frames_[d].cursors[0].kind == relation::Cursor::Kind::kBlocked;
    if (sink.try_bulk(d, c)) {
      if (profiling) {
        const int kind =
            blocked ? support::kProfBlocked : support::kProfBulk;
        const long long w = c.tuples - prof_w0;
        prof_.add_work(static_cast<int>(d), kind, w);
        if (prof_time)
          prof_.book_ns(static_cast<int>(d), kind,
                        support::profile_now_ns() - prof_t0, w);
      }
      return;
    }
  }
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
    prof_.add_work(static_cast<int>(d), support::kProfTuple, produced);
    if (prof_time)
      prof_.book_ns(static_cast<int>(d), support::kProfTuple,
                    support::profile_now_ns() - prof_t0, produced);
  }
}

template <class Sink>
void LinkedRunner::run_impl(Sink&& sink, RunStats* stats) {
  LocalCounters c;
  const long long t0 = wall_now_ns();
  const std::size_t L = lp_.levels.size();
  if (support::profiling_enabled())
    prof_.levels = static_cast<int>(
        std::min<std::size_t>(L, support::kProfileMaxLevels));
  if (stats) {
    stats->tuples = 0;
    stats->levels.assign(L, LevelRunStats{});
  }
  if (L == 0) {
    ++c.tuples;
    sink();
    flush(c, stats, wall_now_ns() - t0);
    return;
  }
  run_span(sink, c, stats, 0, -1);
  flush(c, stats, wall_now_ns() - t0);
}

template <class Sink>
void LinkedRunner::run_span(Sink&& sink, LocalCounters& c, RunStats* stats,
                            index_t chunk_begin, index_t chunk_count) {
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
  // are always on while profiling so the flush can extrapolate sampled
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
    // At the outer level, offer any whole sliced windows to the chunk-
    // wide drain first (no-op unless prepare_chunk engaged and the
    // cursor sits on a window boundary with a full window left), then the
    // rest of the range to the fused outer drain (no-op unless
    // prepare_outer engaged).
    if constexpr (requires { sink.try_chunk(c, stats); }) {
      if (d == 0) {
        sink.try_chunk(c, stats);
        sink.try_outer(c, stats);
      }
    }
    if (d == leaf && lp_.levels[d].method == JoinMethod::kEnumerate) {
      if (prof_bracket) {
        // Segment since the last transition: this level's frame setup.
        const long long t = support::profile_now_ns();
        prof_.book_ns(static_cast<int>(d), prof_kind_of(d), t - prof_last,
                      0);
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
        prof_.add_work(static_cast<int>(d), prof_kind_of(d), 1);
        if (d == 0) {
          // Outer-binding boundary: close the open bracket (the trailing
          // segment covers this binding's enumeration) and open a new one
          // every kProfileSampleEvery-th binding.
          if (prof_bracket) {
            const long long t = support::profile_now_ns();
            prof_.book_ns(0, prof_kind_of(0), t - prof_last, 1);
            prof_bracket = false;
          }
          if (prof_outer_++ % support::kProfileSampleEvery == 0) {
            prof_bracket = true;
            prof_last = support::profile_now_ns();
          }
        } else if (prof_bracket && d != leaf) {
          // Descending: the segment was level-d enumeration + probes.
          const long long t = support::profile_now_ns();
          prof_.book_ns(static_cast<int>(d), prof_kind_of(d),
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
        prof_.book_ns(static_cast<int>(d), prof_kind_of(d), t - prof_last,
                      0);
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
  prepare_bulk(mac);
  prepare_chunk(mac);
  prepare_outer();
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
  const int nworkers = parallel_ ? threads_ : 1;
  workers_.reserve(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w)
    workers_.push_back(std::make_unique<LinkedRunner>(lp));
  if (parallel_) support::shared_pool(threads_);  // spawn once, not per run
}

// The coordinator: deterministic chunk grid over the outer cursor range,
// guided assignment (workers pull the next chunk off one atomic), shards
// merged and flushed ONCE — counters, fan-out histograms, stats and the
// trace all reconcile exactly with a serial run of the same plan.
template <class MakeSink>
void ParallelRunner::run_parallel(MakeSink&& make_sink, RunStats* stats) {
  LinkedRunner& r0 = *workers_.front();
  const std::size_t L = r0.lp_.levels.size();
  traced(r0.lp_, stats, [&](RunStats* st) {
    // One latency sample per run covering the whole fan-out, booked by the
    // coordinator's single flush — same sample count as a serial run.
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

    struct WorkerState {
      LinkedRunner::LocalCounters c;
      RunStats stats;
      long long outer_produced = 0;
      long long chunks = 0;
    };
    std::vector<WorkerState> states(workers_.size());
    std::atomic<index_t> next{0};
    const bool tracing = support::trace_enabled();

    support::shared_pool(threads_).run_slots(
        threads_, [&](int slot) {
          LinkedRunner& r = *workers_[static_cast<std::size_t>(slot)];
          WorkerState& ws = states[static_cast<std::size_t>(slot)];
          ws.stats.levels.assign(L, LevelRunStats{});
          r.chunk_outer_produced_ = &ws.outer_produced;
          if (support::profiling_enabled())
            r.prof_.levels = static_cast<int>(
                std::min<std::size_t>(L, support::kProfileMaxLevels));
          auto sink = make_sink(r);
          std::unique_ptr<support::TraceSpan> span;
          if (tracing) {
            support::trace_name_thread(
                1, support::trace_track().tid,
                "exec worker " + std::to_string(slot));
            span = std::make_unique<support::TraceSpan>("execute.worker",
                                                        "compiler");
          }
          while (true) {
            const index_t k = next.fetch_add(1, std::memory_order_relaxed);
            const index_t begin = k * chunk;
            if (begin >= extent) break;
            r.run_span(sink, ws.c, &ws.stats, begin, chunk);
            ++ws.chunks;
          }
          r.chunk_outer_produced_ = nullptr;
          if (span)
            span->arg("chunks", ws.chunks).arg("tuples", ws.c.tuples);
        });

    // Merge the shards: plain sums for counters and per-level stats, a
    // bucket-wise sum for the deeper fan-out shards, and the withheld
    // level-0 counts folded into the single per-run sample serial books.
    LinkedRunner::LocalCounters total;
    long long outer_produced = 0;
    RunStats merged;
    merged.levels.assign(L, LevelRunStats{});
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WorkerState& ws = states[w];
      total.tuples += ws.c.tuples;
      total.enumerated += ws.c.enumerated;
      total.merge_steps += ws.c.merge_steps;
      total.probe_hits += ws.c.probe_hits;
      total.probe_misses += ws.c.probe_misses;
      total.fill_ins += ws.c.fill_ins;
      total.merge_segment_bytes += ws.c.merge_segment_bytes;
      outer_produced += ws.outer_produced;
      for (std::size_t d = 0; d < L; ++d) {
        merged.levels[d].enumerated += ws.stats.levels[d].enumerated;
        merged.levels[d].produced += ws.stats.levels[d].produced;
      }
      if (w != 0) {
        for (std::size_t d = 0; d < L; ++d)
          for (std::size_t b = 0; b < r0.fanout_local_[d].size(); ++b)
            r0.fanout_local_[d][b] += workers_[w]->fanout_local_[d][b];
        for (auto& buckets : workers_[w]->fanout_local_)
          std::fill(buckets.begin(), buckets.end(), 0);
        // Profile shards merge exactly like the counter shards: plain
        // sums into the coordinator's scratch, flushed once below.
        r0.prof_.merge(workers_[w]->prof_);
        workers_[w]->prof_.reset(0);
      }
    }
    ++r0.fanout_local_[0][static_cast<std::size_t>(
        support::Log2Histogram::bucket_of(outer_produced))];
    r0.flush(total, nullptr, wall_now_ns() - t0);
    if (st) {
      st->tuples = total.tuples;
      st->levels = std::move(merged.levels);
    }
  });
}

void ParallelRunner::run(const Action& action, RunStats* stats) {
  if (!parallel_) {
    workers_.front()->run(action, stats);
    return;
  }
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
  if (!parallel_) {
    workers_.front()->run(mac, stats);
    return;
  }
  run_parallel(
      [&](LinkedRunner& r) {
        // Per-worker copy of the serial mac fast path: operand leaf slots
        // and the bulk-drain plan resolved once per run per worker.
        r.mac_pslots_.clear();
        for (const LinkedMac::Factor& f : mac.factors)
          r.mac_pslots_.push_back(
              static_cast<std::size_t>(r.lp_.leaf_slot[f.slot]));
        const std::size_t tslot =
            static_cast<std::size_t>(r.lp_.leaf_slot[mac.target_slot]);
        r.prepare_bulk(mac);
        r.prepare_chunk(mac);
        r.prepare_outer();
        return LinkedRunner::MacSink{r, mac, tslot};
      },
      stats);
}

void execute_parallel(const Plan& plan, const relation::Query& q,
                      const Action& action, int threads) {
  ParallelRunner runner(link_plan(plan, q), threads);
  runner.run(action);
}

}  // namespace bernoulli::compiler
