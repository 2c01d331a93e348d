// Per-level time attribution (docs/OBSERVABILITY.md, "Per-level
// attribution and flamegraphs").
//
// The registry's counts say how much join work a run did and its latency
// histograms how long runs take — this layer says WHERE the time went:
// which plan level, under which drain kind (per-tuple, merge, bulk,
// blocked, sliced), plus coarse phase attribution (inspector / exchange /
// compute) on the distributed path. The interpreter and the linked engine
// fill the `ProfileScratch` of their run record (support/metrics.hpp); the
// specialized `.so` reports per-level `lvl_ns` slots across its ABI
// (docs/CODEGEN.md). Either way one estimate per run commits into the
// profile store, which lives in the registry's shards.
//
// WORK counts (one plain increment per binding or drained range) are
// exact and shard-merge bitwise across thread counts. TIME is sampled:
// every `kProfileSampleEvery`-th outer binding opens a bracket with one
// steady_clock stamp per level transition (never per tuple); at commit the
// calibrated timer cost is subtracted per sample and the sampled ns are
// extrapolated by the exact work ratio, under the 2% wall budget
// tests/profile_test.cpp asserts. Sampled segments also feed every
// enclosing level's inclusive slot, so the raw values obey
// `incl[d] == sum_kind self[d][*] + incl[d+1]` exactly.
//
// Surfaces: `profile_json()` (schema `bernoulli.profile.v1`, embedded in
// run reports), `profile_collapsed()` (collapsed-stack flamegraph lines,
// `plan;level0;...;level<d>;<kind> <self_ns>`, loadable in speedscope /
// flamegraph.pl), and `analysis/attribution.hpp` for tables and diffs.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bernoulli::support {

// ---------------------------------------------------------------------------
// Kinds, phases, limits
// ---------------------------------------------------------------------------

/// Drain kinds a level's time can be attributed to. kProfTuple is the
/// per-tuple cursor path (and all non-leaf enumeration), kProfMerge the
/// k-finger merge join, the other three a fused leaf form (compiler::
/// leaf_form) by its leaf's storage: compressed, blocked, sliced.
enum : int {
  kProfTuple = 0,
  kProfMerge,
  kProfBulk,
  kProfBlocked,
  kProfSliced,
  kProfKinds
};

/// Distributed-path phases (exact, unsampled intervals).
enum : int {
  kProfPhaseInspector = 0,
  kProfPhaseExchange,
  kProfPhaseCompute,
  kProfPhases
};

const char* profile_kind_name(int kind);    // "tuple", "merge", ...
const char* profile_phase_name(int phase);  // "inspector", ...

/// Deepest plan level the profiler attributes individually. Plans here are
/// 2-3 levels; anything deeper clamps into the last slot.
inline constexpr int kProfileMaxLevels = 8;

/// Sampling period: every K-th outer-level binding is time-bracketed.
inline constexpr long long kProfileSampleEvery = 64;

// ---------------------------------------------------------------------------
// Global switch + timer calibration
// ---------------------------------------------------------------------------

/// Process-wide profiling toggle. Off by default: every instrumentation
/// site is gated on one relaxed load.
void set_profiling(bool on);
bool profiling_enabled();

/// Monotonic nanoseconds (steady_clock) — the profiler's one clock.
long long profile_now_ns();

/// Measured cost of one profile_now_ns() call, calibrated once per process
/// on first use and subtracted per sample at commit time.
long long profile_timer_cost_ns();

// ---------------------------------------------------------------------------
// Per-runner scratch
// ---------------------------------------------------------------------------

/// Plain per-run accumulator — no atomics; lives in the runner (or one per
/// ParallelRunner worker, merged before the single commit).
struct ProfileScratch {
  int levels = 0;
  long long work[kProfileMaxLevels][kProfKinds] = {};
  long long sampled_work[kProfileMaxLevels][kProfKinds] = {};
  long long sampled_ns[kProfileMaxLevels][kProfKinds] = {};
  long long samples[kProfileMaxLevels][kProfKinds] = {};
  long long incl_ns[kProfileMaxLevels] = {};

  void merge(const ProfileScratch& other);
  bool any() const;

  static int clamp_level(int level) {
    return level < 0 ? 0
                     : (level >= kProfileMaxLevels ? kProfileMaxLevels - 1
                                                   : level);
  }

  /// Exact event count (always on while profiling): bindings for
  /// tuple/merge kinds, drained leaf elements for bulk/blocked/sliced.
  void add_work(int level, int kind, long long n) {
    work[clamp_level(level)][kind] += n;
  }

  /// Sampled-bracket segment: self time at (level, kind), inclusive time
  /// on every enclosing level. `work_in_segment` feeds the extrapolation
  /// denominator.
  void book_ns(int level, int kind, long long ns, long long work_in_segment) {
    const int d = clamp_level(level);
    sampled_ns[d][kind] += ns;
    samples[d][kind] += 1;
    sampled_work[d][kind] += work_in_segment;
    for (int up = 0; up <= d; ++up) incl_ns[up] += ns;
  }
};

// ---------------------------------------------------------------------------
// Estimate: compensate, extrapolate
// ---------------------------------------------------------------------------

/// What one run commits to the profile store (support/metrics.hpp, one
/// slice per registry shard). `self_ns` holds the compensated +
/// extrapolated estimates; the raw sampled values ride along
/// so the self/inclusive invariant stays checkable after the merge.
struct ProfileFlush {
  int levels = 0;
  long long self_ns[kProfileMaxLevels][kProfKinds] = {};
  long long work[kProfileMaxLevels][kProfKinds] = {};
  long long samples[kProfileMaxLevels][kProfKinds] = {};
  long long raw_ns[kProfileMaxLevels][kProfKinds] = {};
  long long raw_incl_ns[kProfileMaxLevels] = {};
  long long wall_ns = 0;
};

/// Compensation + extrapolation of a scratch block:
///   comp = max(0, sampled_ns - samples * timer_cost)
///   self = comp * work / sampled_work   (comp when never sampled)
ProfileFlush profile_estimate(const ProfileScratch& s, long long wall_ns);

/// RAII phase bracket; books nothing when profiling is off.
class ProfilePhaseScope {
 public:
  explicit ProfilePhaseScope(int phase);
  ~ProfilePhaseScope();
  ProfilePhaseScope(const ProfilePhaseScope&) = delete;
  ProfilePhaseScope& operator=(const ProfilePhaseScope&) = delete;

 private:
  int phase_;
  long long t0_;
  bool on_;
};

// ---------------------------------------------------------------------------
// ProfileClock — switch-clock for the recursive interpreter
// ---------------------------------------------------------------------------

/// Bracketed switch-clock over a recursion: `maybe_open(level)` samples
/// every K-th invocation of the outer-binding level; while open, `enter`
/// books the elapsed segment to the parent level and `leave` to the level
/// being left, so each level accumulates self time with one stamp per
/// transition. The linked engine open-codes the same discipline in its
/// flat level-stack loop.
class ProfileClock {
 public:
  void begin(ProfileScratch* scratch) {
    scratch_ = scratch;
    open_ = false;
    outer_ = 0;
  }
  bool active() const { return open_; }

  /// Every kProfileSampleEvery-th call opens a bracket (stamp only).
  bool maybe_open() {
    if (outer_++ % kProfileSampleEvery != 0) return false;
    open_ = true;
    last_ = profile_now_ns();
    return true;
  }

  /// Entering level `d` from its parent: the segment since the last stamp
  /// was parent work.
  void enter(int d, int parent_kind) {
    const long long t = profile_now_ns();
    if (d > 0) scratch_->book_ns(d - 1, parent_kind, t - last_, 0);
    last_ = t;
  }

  /// Leaving level `d`: the segment since the last stamp was level-d work.
  void leave(int d, int kind, long long work_in_segment) {
    const long long t = profile_now_ns();
    scratch_->book_ns(d, kind, t - last_, work_in_segment);
    last_ = t;
  }

  /// Ends the bracket after the final leave().
  void close() { open_ = false; }

 private:
  ProfileScratch* scratch_ = nullptr;
  long long last_ = 0;
  long long outer_ = 0;
  bool open_ = false;
};

// ---------------------------------------------------------------------------
// Store snapshot + exports
// ---------------------------------------------------------------------------

/// Summed flushes (the ProfileFlush fields, wall_ns included) plus the
/// phase intervals and the run count.
struct ProfileSnapshot : ProfileFlush {
  long long phase_ns[kProfPhases] = {};
  long long phase_calls[kProfPhases] = {};
  long long runs = 0;
  long long timer_cost_ns = 0;

  /// Books one run's flush (a shard's slice of the store).
  void add(const ProfileFlush& f);
  /// Adds another slice (shards merged in fixed order).
  void merge(const ProfileSnapshot& o);

  /// Estimated self time of one level summed over kinds.
  long long level_self_ns(int level) const;
  /// Estimated inclusive time: this level's self plus everything deeper.
  long long level_incl_ns(int level) const;
  /// Sum of every level's self time (reconciled against execute.wall_ns
  /// by `bench_table2_executor --check` and tests/profile_test.cpp).
  long long total_self_ns() const;
  /// Exact work at one level summed over kinds.
  long long level_work(int level) const;
};

/// The profile store as a `bernoulli.profile.v1` JSON document (embedded
/// in run reports as `profile_registry`; "{}" when nothing was profiled).
std::string profile_json();

/// Collapsed-stack flamegraph lines from the current profile store:
///   plan;level0;...;level<d>;<kind> <self_ns>
/// with phases as `plan;<phase> <ns>`. Empty string when nothing profiled.
std::string profile_collapsed();

/// Parses collapsed-stack text back into (frames, count) pairs; returns
/// false on any malformed line. The round-trip partner of
/// profile_collapsed(), locked by tests/profile_test.cpp.
bool profile_parse_collapsed(
    std::string_view text,
    std::vector<std::pair<std::string, long long>>* out);

}  // namespace bernoulli::support
