// Plan linking: lower a validated (Plan, Query) pair ONCE into a flat,
// slot-addressed program the cursor executor (exec_linked.cpp) can run
// with no name lookups, no per-element virtual dispatch and no allocation
// inside the data loop.
//
// The interpreter in executor.cpp re-resolves everything per run and per
// tuple: variable names to slots, accesses to IndexLevel objects, probes
// through virtual search, enumeration through std::function callbacks.
// Linking is the inspector/executor split applied to our own executor —
// the same specialize-then-run move TACO-style format abstraction makes
// ahead of the data loop: resolve the access-method hierarchy into flat
// op records first, then run a tight loop over raw arrays.
//
// A LinkedPlan BORROWS the Plan, the Query and the views behind it; all
// must stay alive and unmoved while the linked plan runs. Call sites that
// execute the same plan repeatedly (CompiledKernel::run, the distributed
// kernels that re-run one local plan per solver iteration) hold a
// LinkedRunner so linking and scratch allocation happen once, not per
// iteration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/executor.hpp"
#include "relation/cursor.hpp"
#include "support/profile.hpp"

namespace bernoulli::support {
class Log2Histogram;
}

namespace bernoulli::compiler {

/// A driver access, fully resolved: the concrete level plus flat slot
/// indices for its own and its parent's positions.
struct LinkedAccess {
  const relation::IndexLevel* level = nullptr;
  index_t rel = 0;    // index into Query::relations (diagnostics)
  index_t depth = 0;  // hierarchy depth (diagnostics)
  int pos_slot = 0;   // flat position-array slot this access writes
  int parent_slot = -1;  // slot holding the parent position; -1 = root (0)
  // Level descriptor captured at link time. Non-opaque descriptors let the
  // runner open cursors by switching on the kind directly — zero virtual
  // calls per frame open (opaque levels fall back to the buffered adapter).
  relation::LevelDescriptor desc;
};

/// A probe access: the driver fields plus the lowered search method and
/// the slot of the (already bound) variable that feeds the search.
struct LinkedProbe {
  LinkedAccess access;
  relation::SearchSpec search;
  int var_slot = 0;
  bool filters = false;         // miss rejects the iteration
  bool insert_on_miss = false;  // written + insertable: sparse fill-in
};

struct LinkedLevel {
  JoinMethod method = JoinMethod::kEnumerate;
  int var_slot = 0;
  std::vector<LinkedAccess> drivers;  // 1 for enumerate, 2+ for merge
  std::vector<LinkedProbe> probes;
  support::Log2Histogram* fanout = nullptr;  // executor.fanout.level<d>
  // Link-time always-hit proof: every probe at this level is an identity /
  // affine search with no insert-on-miss, and the driver's whole index
  // range provably lands inside every probe's accepting window. When true
  // the bulk leaf drain skips its per-invocation min/max range scan.
  bool proved_all_hit = false;
};

/// Static data-movement footprint of one plan, derived at link time from
/// the same flat cursor specs the bulk-drain proof uses: how many index
/// and value bytes ONE run(LinkedMac) execution touches per operand, and
/// how many FLOPs it performs, assuming every probe hits (the exactness
/// conditions below). This is the numerator/denominator pair the roofline
/// section of a run report needs (arithmetic intensity = flops / bytes).
///
/// `exact` is true only when the walk could prove the totals: every level
/// enumerates a flat EnumSpec, every probe is an always-hit identity or
/// affine search with no filtering and no fill-in, and segmented /
/// per-parent-count levels are invoked exactly once per parent segment.
/// When false, `note` says which condition failed and the totals are 0 —
/// callers must not report a roofline from an inexact footprint.
struct PlanFootprint {
  struct Operand {
    std::string name;          // RelationView::name()
    long long index_bytes = 0; // ptr/ind/off/len/map array bytes read
    long long value_bytes = 0; // value array bytes (written operands: 2x)
  };
  std::vector<Operand> operands;  // one per query relation, in order
  long long leaf_tuples = 0;      // surviving leaf bindings per run
  long long flops = 0;            // multiply-accumulate flops per run
  // Slack bytes a padded layout (SELL-C-σ lanes) stores but never
  // enumerates: storage overhead, excluded from index/value traffic.
  long long padding_bytes = 0;
  bool exact = false;
  std::string note;

  long long index_bytes() const {
    long long total = 0;
    for (const Operand& o : operands) total += o.index_bytes;
    return total;
  }
  long long value_bytes() const {
    long long total = 0;
    for (const Operand& o : operands) total += o.value_bytes;
    return total;
  }
  long long total_bytes() const { return index_bytes() + value_bytes(); }
};

struct LinkedPlan {
  std::vector<LinkedLevel> levels;
  std::vector<int> leaf_slot;  // per relation: slot of its deepest position
  int pos_slots = 0;           // flat position array size
  const Plan* plan = nullptr;            // borrowed (trace labels)
  const relation::Query* query = nullptr;  // borrowed (diagnostics, arity)
  // Link-time parallelizability verdict for the outermost level (see
  // plan_parallel_legality): when false, ParallelRunner runs serially and
  // parallel_note says why (also surfaced by EXPLAIN).
  bool parallel_ok = false;
  std::string parallel_note;
  // Thread-chunk alignment for the outer variable: when the plan walks a
  // blocked level whose block rows group `chunk_align` consecutive outer
  // bindings, chunk boundaries must fall on multiples of it so no block
  // row straddles two threads; when it walks a sliced level, chunks align
  // to the sorting window sigma so whole windows stay thread-local and
  // the chunk-wide sliced drain can engage. 1 = no constraint.
  index_t chunk_align = 1;
  // Static per-run data-movement model (see PlanFootprint). Derived by
  // link_plan; feeds execute.model_bytes / execute.model_flops metrics and
  // the roofline section of run reports.
  PlanFootprint footprint;
};

/// Validates `q` and lowers the pair. The result borrows both arguments.
LinkedPlan link_plan(const Plan& plan, const relation::Query& q);

/// Structural fingerprint of a (Plan, Query) pair: a stable FNV-1a hash
/// over the plan's EXPLAIN document plus each relation's view name,
/// variable binding and access role. Two pairs with equal fingerprints
/// link to the same program STRUCTURE — join order and methods, access
/// paths, level descriptors and format kinds (all of which EXPLAIN
/// renders). Deliberately excluded: storage identity and contents — a
/// cache key layers those on top (the KernelServer appends the concrete
/// array identity and the distribution tag; see docs/SERVING.md).
std::uint64_t plan_fingerprint(const Plan& plan, const relation::Query& q);

/// Whether the outermost plan level may be chunked across threads, and
/// why (not). Legal iff the outer level is an enumerate (a chunked
/// k-finger merge would change merge_steps), no access anywhere inserts
/// on miss (fill-in grows shared storage mid-run), no probe goes through
/// a stateful virtual search (e.g. the lazily built hash index), and
/// every written relation binds the outer variable at its root level —
/// distinct outer bindings then touch disjoint output rows, so any chunk
/// assignment reproduces the serial result bitwise with no reduction.
struct ParallelLegality {
  bool ok = false;
  std::string note;
};
ParallelLegality plan_parallel_legality(const Plan& plan,
                                        const relation::Query& q);

/// Walks the plan's flat cursor specs and derives the static data-movement
/// footprint link_plan attaches to the LinkedPlan. Exposed for tests (the
/// differential footprint test cross-checks leaf_tuples and bytes against
/// measured executor.* counters).
PlanFootprint derive_footprint(const Plan& plan, const relation::Query& q);

/// The multiply-accumulate statement, lowered: relation slots resolved and
/// raw value arrays captured where the views expose them (empty spans fall
/// back to the virtual value accessors — e.g. sparse accumulators, whose
/// storage grows mid-run).
struct LinkedMac {
  relation::RelationView* target = nullptr;
  std::size_t target_slot = 0;
  std::span<value_t> target_data;  // empty: use target->value_add
  value_t scale = 1.0;
  struct Factor {
    const relation::RelationView* view = nullptr;
    std::size_t slot = 0;
    std::span<const value_t> data;  // empty: use view->value_at
  };
  std::vector<Factor> factors;
};

LinkedMac link_mac(const relation::Query& q, index_t target_rel,
                   const std::vector<index_t>& factor_rels,
                   value_t scale = 1.0);

/// Process-wide toggle for the bulk leaf-range drain (exec_linked.cpp):
/// when the leaf level of a run(LinkedMac) plan enumerates a flat cursor
/// range and every leaf probe provably hits, the whole range streams
/// through one tight multiply-accumulate loop instead of per-element
/// probe resolution. Outputs, executor.* counter deltas, fan-out
/// histograms and per-level stats are bitwise-identical either way (the
/// differential sweep in tests/exec_linked_test.cpp enforces it); the
/// toggle exists so tests and ablations can compare the two paths.
/// Default: enabled.
void set_bulk_drain(bool enabled);
bool bulk_drain_enabled();

/// Runs a LinkedPlan. Owns all executor scratch (frames, cursor buffers,
/// merge state, local counter blocks), reused across runs — after the
/// first run of a given plan, steady state performs no heap allocation.
/// Observability is batched: executor.* counters and fan-out histograms
/// are accumulated in plain locals and flushed once per run, preserving
/// the exact totals the interpreter books per event.
class LinkedRunner {
 public:
  explicit LinkedRunner(LinkedPlan lp);

  const LinkedPlan& linked() const { return lp_; }

  /// One run, invoking `action` per surviving tuple (interpreter-identical
  /// results, counters and per-level stats).
  void run(const Action& action, RunStats* stats = nullptr);

  /// One run of a lowered multiply-accumulate statement — the fast path
  /// that also skips the per-tuple std::function and virtual value access.
  void run(const LinkedMac& mac, RunStats* stats = nullptr);

  /// One run's observability delta — exactly what flush() books into the
  /// executor.* counters and the per-level fan-out histograms, captured as
  /// plain numbers. The KernelServer records one of these from a cached
  /// plan's first run and REPLAYS it (times k, under the metrics commit
  /// lock) when a batched multi-vector sweep stands in for k engine runs,
  /// so counters and histograms reconcile exactly with the unbatched path.
  struct FlushDelta {
    long long tuples = 0;
    long long enumerated = 0;
    long long merge_steps = 0;
    long long probe_hits = 0;
    long long probe_misses = 0;
    long long fill_ins = 0;
    long long merge_segment_bytes = 0;
    /// Per-level fan-out bucket counts, kBuckets wide per level
    /// (support/histogram.hpp); bucket b's representative value is
    /// 0 for b == 0, else 1 << (b - 1).
    std::vector<std::vector<long long>> fanout;
  };

  /// Installs (nullptr clears) a capture target the next flush fills
  /// before booking. The captured run still books its own group normally —
  /// capture is observation, not redirection.
  void set_flush_capture(FlushDelta* capture) { capture_ = capture; }

 private:
  struct Frame {
    std::vector<relation::Cursor> cursors;     // one per driver
    std::vector<relation::CursorBuffer> bufs;  // per-driver fallback scratch
    long long seg_bytes = 0;      // merge: summed segment bytes at open
    bool advance_pending = false;  // merge: fingers sit on the last match
    long long inv_enumerated = 0;
    long long inv_produced = 0;
  };

  struct LocalCounters {
    long long tuples = 0;
    long long enumerated = 0;
    long long merge_steps = 0;
    long long probe_hits = 0;
    long long probe_misses = 0;
    long long fill_ins = 0;
    long long merge_segment_bytes = 0;
  };

  template <class Sink>
  void run_impl(Sink&& sink, RunStats* stats);

  // Shared body of the serial run and the parallel chunk run: iterates
  // the level stack over outer-cursor offsets [chunk_begin, chunk_begin +
  // chunk_count) (chunk_count < 0 = the whole range), accumulating into
  // caller-owned locals without flushing. In chunk mode (see
  // chunk_outer_produced_) the level-0 fan-out sample is withheld so the
  // coordinator can book ONE merged sample per run, exactly like serial.
  template <class Sink>
  void run_span(Sink&& sink, LocalCounters& c, RunStats* stats,
                index_t chunk_begin, index_t chunk_count);

  // Innermost-level fast path: produces every binding of an enumerate leaf
  // frame in one tight loop (cursor kind dispatched once per invocation,
  // not per element) and fires the sink inline, instead of re-entering the
  // level state machine per element. `prof_time` brackets the invocation
  // with one timestamp pair (set inside sampled profiler brackets only).
  template <class Sink>
  void drain_enumerate_leaf(std::size_t d, LocalCounters& c, Sink&& sink,
                            bool prof_time);

  void open_frame(std::size_t d);
  void close_frame(std::size_t d, LocalCounters& c, RunStats* stats);
  bool next_binding(std::size_t d, LocalCounters& c);
  bool resolve_probes(const LinkedLevel& lv, LocalCounters& c);
  // Flushes the per-run local counters into the registries and books the
  // run's serving metrics (execute.latency / execute.wall_ns and, when the
  // footprint is exact, execute.model_bytes / execute.model_flops) from
  // `wall_ns`, the measured wall time of this run. The parallel runner
  // times the whole fan-out and flushes ONCE through the coordinator, so
  // serial and threaded runs book the same number of samples.
  void flush(const LocalCounters& c, RunStats* stats, long long wall_ns);

  // --- Bulk leaf-range drain (run(LinkedMac) only) -------------------
  // One mac operand's leaf position, classified against the leaf level:
  // constant across the drain (bound at an outer level), the driver's own
  // position, or derived from the bound index through an identity/affine
  // probe. Resolved once per run; the per-invocation bases (kConst slot
  // reads, kAffine parent*stride) are refreshed inside try_bulk.
  struct BulkOp {
    enum class Src : unsigned char { kConst, kDriver, kIdentity, kAffine };
    Src src = Src::kConst;
    const value_t* data = nullptr;  // factor value array (target: unused)
    std::size_t slot = 0;           // kConst: pos_ slot read per invocation
    index_t stride = 0;             // kAffine
    int parent_slot = -1;           // kAffine
    // Per-invocation flattened form: pos = base + (mp & driver_pos) +
    // (mi & idx), mp/mi all-ones or zero — a select, not a multiply.
    index_t base = 0;
    index_t mp = 0;
    index_t mi = 0;
    index_t at(index_t pos, index_t idx) const {
      return base + (mp & pos) + (mi & idx);
    }
  };
  // The run(LinkedMac) sink: per-element multiply-accumulate plus the
  // try_bulk hook drain_enumerate_leaf detects. Defined in exec_linked.cpp
  // (local to the engine); ParallelRunner builds one per worker.
  struct MacSink;
  // Classifies the mac against the leaf level and fills bulk_* members.
  void prepare_bulk(const LinkedMac& mac);
  // Classifies the whole plan for the chunk-wide sliced drain (a two-
  // level dense-rows x sliced-leaf mac with proved all-hit probes and a
  // register-cacheable target) and fills chunk_* members.
  void prepare_chunk(const LinkedMac& mac);
  // Classifies the whole plan for the fused outer-range drain (a two-
  // level enumerate plan with proved all-hit probes over a compressed or
  // blocked leaf) and fills outer_* members.
  void prepare_outer();

  LinkedPlan lp_;
  std::vector<index_t> vars_;
  std::vector<index_t> pos_;
  std::vector<index_t> leaf_;
  std::vector<Frame> frames_;
  // run(LinkedMac) scratch: each operand's resolved leaf position slot.
  // Member (not a local) so repeated runs reuse the capacity.
  std::vector<std::size_t> mac_pslots_;
  // Bulk-drain plan (prepare_bulk): factor operand forms in factor order,
  // the target's form, and the two eligibility verdicts. Members so
  // steady-state runs allocate nothing.
  std::vector<BulkOp> bulk_ops_;
  BulkOp bulk_target_;
  bool bulk_ok_ = false;      // leaf level + operands admit bulk drains
  bool bulk_acc_ok_ = false;  // target constant and alias-free: cache it
  // --- Chunk-wide sliced drain (run(LinkedMac) only) -----------------
  // When a two-level plan enumerates dense rows over a sliced (SELL-C-σ)
  // leaf, whole σ-row windows drain in storage order as per-chunk
  // unit-stride lane passes (padded lanes retire as a suffix of the
  // descending-length lane order), instead of one lane-strided walk per
  // row. Per-row accumulation order is unchanged — one private register
  // per lane, ascending k — so results, counters, fan-out histograms and
  // per-level stats are identical to the per-row path.
  bool chunk_ok_ = false;
  index_t chunk_c_ = 0;      // lanes per chunk (SELL C)
  index_t chunk_sigma_ = 0;  // sorting window (a multiple of C)
  const index_t* chunk_off_ = nullptr;  // per-row storage base
  const index_t* chunk_len_ = nullptr;  // per-row live length
  const index_t* chunk_ind_ = nullptr;  // lane-interleaved column ids
  // Window scratch (slot = row - window start), reused across windows.
  std::vector<index_t> chunk_ord_;   // window slots in storage order
  std::vector<index_t> chunk_base_;  // per-slot storage base
  std::vector<index_t> chunk_lens_;  // per-slot live length
  std::vector<index_t> chunk_tpos_;  // per-slot target position
  std::vector<value_t> chunk_acc_;   // per-lane accumulators
  // --- Fused outer-range drain (run(LinkedMac) only) -----------------
  // When a two-level plan drives a compressed or blocked leaf with every
  // probe proved all-hit, the whole outer cursor range drains in one loop
  // (per row: level-0 bindings, the leaf segment bounds, the bulk loop
  // body) instead of walking the level stack once per row.
  bool outer_ok_ = false;
  std::vector<BulkOp*> outer_vary_;  // operands re-flattened per row
  // Per-level local fan-out buckets, flushed to the registry histograms
  // once per run (kBuckets wide, see support/histogram.hpp).
  std::vector<std::vector<long long>> fanout_local_;
  // Chunk mode (set by ParallelRunner): close_frame(0) adds the outer
  // level's produced count here instead of booking a fan-out sample per
  // chunk — the serial engine books exactly one sample per run.
  long long* chunk_outer_produced_ = nullptr;
  // Per-run time-attribution scratch (support/profile.hpp): exact per-
  // (level, drain-kind) work counts plus sampled level-transition
  // intervals, flushed once per run by flush(). The ParallelRunner merges
  // worker shards into the coordinator's scratch before its single flush,
  // so work counts stay bitwise serial-identical for any thread count.
  support::ProfileScratch prof_;
  // Outer-binding counter driving the sampling gate (every
  // kProfileSampleEvery-th outer binding opens a timing bracket).
  long long prof_outer_ = 0;
  // Optional per-run delta capture target (set_flush_capture); filled by
  // flush() before it books, then left installed for the next run.
  FlushDelta* capture_ = nullptr;

  friend class ParallelRunner;
};

/// Runs a LinkedPlan across the shared thread pool by chunking the
/// outermost enumerate level: a deterministic chunk grid over the outer
/// cursor range, pulled guided-style by `threads` workers, each with its
/// own LinkedRunner (scratch, counters, fan-out shards, trace buffer).
/// Shards merge once per run into the same registry objects the serial
/// engine feeds, so executor.* deltas, fan-out histograms and per-level
/// stats are EXACTLY the serial engine's, for any thread count.
///
/// When the plan is not parallelizable (see plan_parallel_legality) or
/// threads <= 1 every run delegates to a single serial LinkedRunner —
/// same results, no pool involvement. Callers of run(Action) must pass an
/// action that is safe to invoke concurrently for distinct outer
/// bindings; run(LinkedMac) is safe whenever the plan is parallel-legal
/// (disjoint output rows).
class ParallelRunner {
 public:
  ParallelRunner(LinkedPlan lp, int threads);

  const LinkedPlan& linked() const { return workers_.front()->linked(); }
  int threads() const { return threads_; }
  /// True when runs actually fan out (legal plan and threads > 1).
  bool parallel() const { return parallel_; }

  void run(const Action& action, RunStats* stats = nullptr);
  void run(const LinkedMac& mac, RunStats* stats = nullptr);

 private:
  template <class MakeSink>
  void run_parallel(MakeSink&& make_sink, RunStats* stats);

  int threads_ = 1;
  bool parallel_ = false;
  // workers_[0] doubles as the serial fallback runner.
  std::vector<std::unique_ptr<LinkedRunner>> workers_;
};

/// One-shot parallel execution of a (Plan, Query) pair — links, runs the
/// action across `threads` workers (serial fallback applies), discards
/// the program. Repeated runs should hold a ParallelRunner instead.
void execute_parallel(const Plan& plan, const relation::Query& q,
                      const Action& action, int threads);

}  // namespace bernoulli::compiler
