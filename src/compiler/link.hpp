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
//
// Linking also READS the index structure behind the views, once: it scans
// every enumerate level's index range (LinkedLevel::range), and every
// verdict about the plan's shape — the always-hit proofs, the parallel
// mode, the footprint, the specialization refusal and the leaf form —
// reads that scan instead of re-deriving it. An owner-computes
// ParallelRunner builds its per-thread column cut tables from the leaf's
// ptr/ind arrays at construction. Both assume the structure is fixed after
// link — values may change between runs, ptr and ind may not (re-link
// after changing them).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/executor.hpp"
#include "relation/cursor.hpp"
#include "support/metrics.hpp"

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

/// The indices a level's cursors enumerate, over every parent its relation
/// holds: [mn, mx], or nothing when mx < mn.
struct IndexRange {
  index_t mn = 0;
  index_t mx = -1;
  bool empty() const { return mx < mn; }
  /// Every index lies in [0, extent) — vacuously when empty.
  bool within(index_t extent) const {
    return empty() || (mn >= 0 && mx < extent);
  }
};

struct LinkedLevel {
  JoinMethod method = JoinMethod::kEnumerate;
  int var_slot = 0;
  std::vector<LinkedAccess> drivers;  // 1 for enumerate, 2+ for merge
  std::vector<LinkedProbe> probes;
  // The driver's enumerable index range, scanned once at link time (O(nnz),
  // inspector work) by walking its stored structure as the cursors do:
  // padding lanes and levels under an empty parent enumerate nothing. Set
  // for enumerate levels whose driver has a flat descriptor; empty for
  // merge levels and opaque drivers, which no proof reads.
  IndexRange range;
  // Link-time always-hit proof: an enumerate level over a flat driver
  // whose every probe is an identity / affine search by the level's own
  // variable with no insert-on-miss, and whose `range` lies inside every
  // probe's accepting window — no element of this level can miss.
  bool proved_all_hit = false;
};

/// Static data-movement footprint of one plan, derived at link time from
/// the level descriptors and the stored ranges: how many index and value
/// bytes ONE run(LinkedMac) execution touches per operand, and how many
/// FLOPs it performs, assuming every probe hits (the exactness conditions
/// below). These are the per-run model bytes and flops the engines book as
/// execute.model_bytes / execute.model_flops.
///
/// `exact` is true only when the walk could prove the totals: every level
/// enumerates a flat (non-opaque) driver, every probe is an always-hit
/// identity or affine search with no fill-in (a filtering one only when
/// the level's range fits its window), and segmented / per-parent-count
/// levels are invoked exactly once per parent segment.
/// When false, `note` says which condition failed and the totals are 0 —
/// callers must not read an inexact footprint's zeros as traffic.
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
  // Link-time verdict on whether the plan may run across threads, how, and
  // why (not); when false, ParallelRunner runs serially and parallel_note
  // says why (also surfaced by EXPLAIN).
  //
  // Chunked mode splits the outermost level: legal iff the outer level is
  // an enumerate (a chunked k-finger merge would change merge_steps), no
  // access anywhere inserts on miss (fill-in grows shared storage
  // mid-run), no probe goes through a stateful virtual search (e.g. the
  // lazily built hash index), and every written relation binds the outer
  // variable at its root level — distinct outer bindings then touch
  // disjoint output rows, so any chunk assignment reproduces the serial
  // result bitwise with no reduction.
  //
  // Owner-computes mode (owner_computes) splits the OUTPUT instead, for a
  // column walk that writes a vector of the leaf variable (CCS y += A·x):
  // a two-level enumerate plan over a dense outer range, a sorted
  // compressed leaf under it, every level proved all-hit and every written
  // relation probed at the leaf. Each thread owns a range of output rows
  // and walks its segment of every column in column order, so every output
  // element sums in the serial order. Only ParallelRunner::run(LinkedMac)
  // fans out in this mode.
  bool parallel_ok = false;
  bool owner_computes = false;  // parallel_ok through owner-computes
  std::string parallel_note;
  // Thread-chunk alignment for the outer variable: when the plan walks a
  // blocked level whose block rows group `chunk_align` consecutive outer
  // bindings, chunk boundaries must fall on multiples of it so no block
  // row straddles two threads. 1 = no constraint.
  index_t chunk_align = 1;
  // Static per-run data-movement model (see PlanFootprint). Derived by
  // link_plan; feeds execute.model_bytes / execute.model_flops metrics.
  PlanFootprint footprint;
  // The registry handles every run of this plan commits its RunRecord
  // through (executor.*, execute.*, executor.fanout.level<d>): the
  // process's sink for this level count, so no run does a by-name lookup.
  const support::RunSink* sink = nullptr;
};

/// Validates `q` and lowers the pair. The result borrows both arguments.
LinkedPlan link_plan(const Plan& plan, const relation::Query& q);

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

/// The first factor whose flat value array overlaps the target's (as in
/// y += A·y), or nullptr. While one exists, no loop may keep the target
/// element or a factor element in a register across a store.
const LinkedMac::Factor* overlapping_factor(const LinkedMac& mac);

/// The leaf loop a (LinkedPlan, LinkedMac) pair runs, on the linked engine
/// and in emitted C alike. The fused forms need a two-level enumerate plan
/// over a dense outer range whose levels are both proved all-hit, whose
/// level-0 probes are rooted, whose leaf is a compressed, sliced or
/// blocked level hanging off level 0, whose operands expose flat value
/// arrays, whose target overlaps no factor, and which binds the target or
/// a factor at level 0 (the operand a fused form keeps in a register):
///   kAccumulator   — the target element accumulates in a register per row
///                    (CSR, SELL-C-σ);
///   kHoistedFactor — a level-0 factor loads once per row and the target
///                    is stored per element (CCS's x[j]);
///   kBlockRow      — a blocked leaf walks one block row per step with one
///                    accumulator per row (BCSR);
///   kPerElement    — every other pair: the level stack, one store and one
///                    counter update per tuple.
enum class LeafForm { kPerElement, kAccumulator, kHoistedFactor, kBlockRow };
const char* leaf_form_name(LeafForm form);

/// The one leaf-form verdict: the form `mac` takes over `lp`, read from
/// what link_plan proved. When `note` is given it receives the form and
/// why ("accumulator leaf: Y accumulates in registers per row",
/// "per-element leaf: target Y overlaps factor X"); without it the verdict
/// allocates nothing, so an engine may ask on every run.
LeafForm leaf_form(const LinkedPlan& lp, const LinkedMac& mac,
                   std::string* note = nullptr);

/// The support::kProf* drain kind a fused leaf form books its work under,
/// by the leaf's storage: blocked, sliced, else bulk. (A per-element leaf
/// books tuples.)
int fused_drain_kind(const LinkedPlan& lp);

/// Runs a LinkedPlan. Owns all executor scratch (frames, cursor buffers,
/// merge state, the run record), reused across runs — after the first
/// run of a given plan, steady state performs no heap allocation.
/// Observability is batched: executor.* counts, fan-out buckets and the
/// profile accumulate in a support::RunRecord and commit once per run,
/// preserving the exact totals the interpreter books.
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

 private:
  struct Frame {
    std::vector<relation::Cursor> cursors;     // one per driver
    std::vector<relation::CursorBuffer> bufs;  // per-driver fallback scratch
    long long seg_bytes = 0;      // merge: summed segment bytes at open
    bool advance_pending = false;  // merge: fingers sit on the last match
    long long inv_enumerated = 0;
    long long inv_produced = 0;
  };

  template <class Sink>
  void run_impl(Sink&& sink, RunStats* stats);

  // Shared body of the serial run and the parallel chunk run: iterates
  // the level stack over outer-cursor offsets [chunk_begin, chunk_begin +
  // chunk_count) (chunk_count < 0 = the whole range), accumulating into
  // the run record without committing. In chunk mode (see
  // chunk_outer_produced_) the level-0 fan-out sample is withheld so the
  // coordinator can book ONE merged sample per run, exactly like serial.
  template <class Sink>
  void run_span(Sink&& sink, support::WorkCounts& c, RunStats* stats,
                index_t chunk_begin, index_t chunk_count);

  // Innermost-level fast path: produces every binding of an enumerate leaf
  // frame in one tight loop (cursor kind dispatched once per invocation,
  // not per element), resolving the leaf probes and firing the sink per
  // element, instead of re-entering the level state machine per element.
  // `prof_time` brackets the invocation with one timestamp pair (set
  // inside sampled profiler brackets only).
  template <class Sink>
  void drain_enumerate_leaf(std::size_t d, support::WorkCounts& c,
                            Sink&& sink, bool prof_time);

  void open_frame(std::size_t d);
  void close_frame(std::size_t d, support::WorkCounts& c, RunStats* stats);
  bool next_binding(std::size_t d, support::WorkCounts& c);
  bool resolve_probes(const LinkedLevel& lv, support::WorkCounts& c);
  // Starts a run's record: zeroed counts and fan-out, profile levels set
  // when profiling is on.
  void begin_record();
  // Commits the run record with `wall_ns`, the measured wall time of this
  // run, through the plan's sink. The parallel runner times the whole
  // fan-out and commits ONCE through the coordinator, so serial and
  // threaded runs book the same number of samples.
  void commit(RunStats* stats, long long wall_ns);

  // --- Fused outer-range drain (run(LinkedMac) only) -----------------
  // When leaf_form() gives a pair a fused form, the whole outer cursor
  // range drains in one loop (per row: the leaf element range and the
  // drain body) instead of walking the level stack once per row. Level 0
  // is lowered to affine offsets for it: at outer cursor counter k the
  // dense driver binds var = k, and every position slot level 0 writes
  // (the driver's, each rooted identity/affine probe's) holds off + k.
  //
  // One mac operand's leaf position, classified against the leaf level:
  // bound at level 0 (kConst), the leaf driver's own position, or derived
  // from the leaf index through an identity/affine probe; then lowered
  // once per run to an affine function of the outer row.
  struct BulkOp {
    enum class Src : unsigned char { kConst, kDriver, kIdentity, kAffine };
    Src src = Src::kConst;
    const value_t* data = nullptr;  // factor value array (target: unused)
    std::size_t slot = 0;           // kConst: pos_ slot it reads
    index_t stride = 0;             // kAffine
    int parent_slot = -1;           // kAffine
    // Lowered form at outer row k: pos = base + k*step + (mp & driver_pos)
    // + (mi & idx), mp/mi all-ones or zero — a select, not a multiply.
    index_t base = 0;
    index_t step = 0;
    index_t mp = 0;
    index_t mi = 0;
    index_t row_base(index_t k) const { return base + k * step; }
    index_t at(index_t k, index_t pos, index_t idx) const {
      return row_base(k) + (mp & pos) + (mi & idx);
    }
  };
  // The run(LinkedMac) sink: the per-element multiply-accumulate plus the
  // fused drains run_span offers the outer range to. Defined in
  // exec_linked.cpp (local to the engine); ParallelRunner builds one per
  // worker.
  struct MacSink;
  // Asks leaf_form() for the mac's form and, for a fused one, lowers
  // level 0 and the operands (outer_* members).
  void prepare_outer(const LinkedMac& mac);
  // Lowers one operand to its BulkOp::at form, with each pos_ slot it
  // reads given as base + k*step by `slot_form` (exec_linked.cpp).
  template <class SlotForm>
  static void flatten(BulkOp& o, index_t rows, SlotForm slot_form);

  LinkedPlan lp_;
  std::vector<index_t> vars_;
  std::vector<index_t> pos_;
  std::vector<index_t> leaf_;
  std::vector<Frame> frames_;
  // run(LinkedMac) scratch: each operand's resolved leaf position slot.
  // Member (not a local) so repeated runs reuse the capacity.
  std::vector<std::size_t> mac_pslots_;
  // The fused drain's plan (prepare_outer). Members so steady-state runs
  // allocate nothing.
  bool outer_ok_ = false;
  bool bulk_acc_ok_ = false;  // target bound at level 0: cache it per row
  struct OuterSlot {
    int slot = 0;
    index_t off = 0;
  };
  std::vector<OuterSlot> outer_slots_;  // driver first, then probes
  index_t outer_parent_off_ = 0;
  BulkOp outer_target_;
  std::vector<BulkOp> outer_ops_;
  // One owner-computes worker's share (built by ParallelRunner): the
  // output rows [row_lo, row_hi) it owns, its segment [lo[p], hi[p]) of
  // every column p, the outer rows [col_lo, col_hi) from its first to its
  // last non-empty segment, and the slice [fan_lo, fan_hi) of columns
  // whose level-1 fan-out it books.
  struct OwnerPart {
    index_t row_lo = 0, row_hi = 0;
    const index_t* lo = nullptr;
    const index_t* hi = nullptr;
    index_t col_lo = 0, col_hi = 0;
    index_t fan_lo = 0, fan_hi = 0;
  };
  // Chunk mode (set by ParallelRunner): close_frame(0) adds the outer
  // level's produced count here instead of booking a fan-out sample per
  // chunk — the serial engine books exactly one sample per run.
  long long* chunk_outer_produced_ = nullptr;
  // The run record (support/metrics.hpp): executor.* work counts, per-
  // level fan-out buckets, the footprint, and the time-attribution scratch
  // (exact per-(level, drain-kind) work counts plus sampled level-
  // transition intervals), committed once per run by commit(). The
  // ParallelRunner merges worker records into the coordinator's before
  // its single commit, so counts stay bitwise serial-identical for any
  // thread count.
  support::RunRecord rec_;
  // Outer-binding counter driving the sampling gate (every
  // kProfileSampleEvery-th outer binding opens a timing bracket).
  long long prof_outer_ = 0;

  friend class ParallelRunner;
};

/// Runs a LinkedPlan across the shared thread pool by chunking the
/// outermost enumerate level: a deterministic chunk grid over the outer
/// cursor range, pulled guided-style by `threads` workers, each with its
/// own LinkedRunner (scratch, run record, trace buffer). Worker records
/// merge once per run into the same registry objects the serial engine
/// feeds, so executor.* deltas, fan-out histograms and per-level
/// stats are EXACTLY the serial engine's, for any thread count.
///
/// Owner-computes plans (LinkedPlan::owner_computes, CCS SpMV) split the
/// output instead: at construction the rows of the output are cut into
/// `threads` nnz-balanced ranges and a one-pass inspector records where
/// every column's sorted segment crosses each range boundary. Each worker
/// then runs the fused drain over its own segment of every column, in
/// column order, so each output element sums in the serial order; level 0
/// is booked once by the coordinator and level-1 fan-out from full column
/// lengths, so counters and histograms stay the serial engine's too.
///
/// When the plan is not parallelizable (LinkedPlan::parallel_ok) or
/// threads <= 1 every run delegates to a single serial LinkedRunner —
/// same results, no pool involvement. Callers of run(Action) must pass an
/// action that is safe to invoke concurrently for distinct outer
/// bindings; run(LinkedMac) is safe whenever the plan is parallel-legal
/// (disjoint output rows). A mac whose target overlaps a factor (y += A·y)
/// runs serially, and an owner-computes runner also runs run(Action) and a
/// mac whose leaf_form() is not the hoisted-factor form serially;
/// run_note() names the reason.
class ParallelRunner {
 public:
  ParallelRunner(LinkedPlan lp, int threads);

  const LinkedPlan& linked() const { return workers_.front()->linked(); }
  int threads() const { return threads_; }
  /// True when runs fan out (legal plan and threads > 1); owner-computes
  /// runners may still run a particular call serially (run_note).
  bool parallel() const { return parallel_; }
  /// Empty after a run that fanned out; otherwise why the last run (or,
  /// before any run, every run) executed serially.
  const std::string& run_note() const { return run_note_; }

  void run(const Action& action, RunStats* stats = nullptr);
  void run(const LinkedMac& mac, RunStats* stats = nullptr);

 private:
  template <class MakeSink>
  void run_parallel(MakeSink&& make_sink, RunStats* stats);

  // Per-worker run state beside its record, merged by merge_commit.
  struct Shard {
    RunStats stats;
    long long outer_produced = 0;  // level-0 count, booked as one sample
    long long chunks = 0;
  };
  // Merges the worker records and stats into worker 0 and commits once:
  // plain sums for counts, per-level stats, fan-out buckets and profile
  // work, and the summed level-0 count as the single sample a serial run
  // books.
  void merge_commit(const std::vector<Shard>& shards, RunStats* st,
                    long long t0);
  // Owner-computes partition and inspector: fills parts_ and cuts_.
  void inspect_owner();
  void run_owner(const LinkedMac& mac, RunStats* stats);

  int threads_ = 1;
  bool parallel_ = false;
  std::string run_note_;
  // workers_[0] doubles as the serial fallback runner.
  std::vector<std::unique_ptr<LinkedRunner>> workers_;
  // Owner-computes cut tables: boundary t (1 <= t < threads) of column p
  // at cuts_[(t - 1) * columns + p]; boundary 0 is ptr[p], boundary
  // threads is ptr[p + 1].
  std::vector<index_t> cuts_;
  std::vector<LinkedRunner::OwnerPart> parts_;
};

}  // namespace bernoulli::compiler
