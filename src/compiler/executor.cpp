#include "compiler/executor.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/metrics.hpp"
#include "support/profile.hpp"
#include "support/trace.hpp"

namespace bernoulli::compiler {

using relation::Query;

namespace {

class Interpreter {
 public:
  Interpreter(const Plan& plan, const Query& q, const Action& action)
      : plan_(plan), q_(q), action_(action) {
    var_value_.assign(q.vars.size(), -1);
    pos_.resize(q.relations.size());
    for (std::size_t r = 0; r < q.relations.size(); ++r)
      pos_[r].assign(q.relations[r].vars.size(), -1);
    // The run record: work counts and per-level fan-out buckets (bindings
    // produced per invocation of a join level) with plain adds in the hot
    // loop, committed once by execute_interpreted.
    rec_.begin(plan.levels.size());
    produced_.assign(plan.levels.size(), 0);
    enumerated_.assign(plan.levels.size(), 0);
    // Name resolution happens here, once per run — not in the data loop.
    // (var_slot used to run a linear string scan per probe per tuple.)
    level_slot_.reserve(plan.levels.size());
    probe_slots_.resize(plan.levels.size());
    for (std::size_t d = 0; d < plan.levels.size(); ++d) {
      const PlanLevel& lv = plan.levels[d];
      level_slot_.push_back(var_slot(lv.var));
      probe_slots_[d].reserve(lv.probes.size());
      for (const Access& a : lv.probes) {
        const auto& rel = q.relations[static_cast<std::size_t>(a.rel)];
        probe_slots_[d].push_back(
            var_slot(rel.vars[static_cast<std::size_t>(a.depth)]));
      }
    }
    // Merge scratch is per plan depth (merge levels can nest, so one shared
    // buffer would be clobbered by recursion) and owned by the interpreter:
    // segments keep their capacity across invocations instead of
    // reallocating per call.
    merge_scratch_.resize(plan.levels.size());
    prof_on_ = support::profiling_enabled();
    if (prof_on_) {
      rec_.profile.levels = static_cast<int>(
          std::min(plan.levels.size(),
                   static_cast<std::size_t>(support::kProfileMaxLevels)));
      prof_clock_.begin(&rec_.profile);
      prof_kind_.reserve(plan.levels.size());
      for (const PlanLevel& lv : plan.levels)
        prof_kind_.push_back(lv.method == JoinMethod::kMerge
                                 ? support::kProfMerge
                                 : support::kProfTuple);
    }
  }

  void run() { level(0); }

  support::RunRecord& record() { return rec_; }
  long long produced(std::size_t d) const {
    return produced_[d];
  }
  long long enumerated(std::size_t d) const {
    return enumerated_[d];
  }

 private:
  index_t parent_pos(const Access& a) const {
    return a.depth == 0
               ? 0
               : pos_[static_cast<std::size_t>(a.rel)]
                     [static_cast<std::size_t>(a.depth) - 1];
  }

  const relation::IndexLevel& level_of(const Access& a) const {
    return q_.relations[static_cast<std::size_t>(a.rel)].view->level(a.depth);
  }

  std::size_t var_slot(const std::string& v) const {
    auto it = std::find(q_.vars.begin(), q_.vars.end(), v);
    BERNOULLI_CHECK(it != q_.vars.end());
    return static_cast<std::size_t>(it - q_.vars.begin());
  }

  void set_pos(const Access& a, index_t p) {
    pos_[static_cast<std::size_t>(a.rel)][static_cast<std::size_t>(a.depth)] =
        p;
  }

  // Resolves the probes of plan level d once its variable is bound; returns
  // false when a filtering probe misses (iteration rejected). A missed
  // probe of a WRITTEN relation with an insertable level creates the entry
  // instead — sparse-output fill-in.
  bool resolve_probes(std::size_t d, const PlanLevel& lv) {
    support::WorkCounts& ctr = rec_.work;
    for (std::size_t i = 0; i < lv.probes.size(); ++i) {
      const Access& a = lv.probes[i];
      const auto& rel = q_.relations[static_cast<std::size_t>(a.rel)];
      index_t idx = var_value_[probe_slots_[d][i]];
      const relation::IndexLevel& lvl = level_of(a);
      index_t p = lvl.search(parent_pos(a), idx);
      if (p < 0) {
        ++ctr.probe_misses;
        if (rel.filters) return false;
        if (rel.writes && lvl.insertable()) {
          ++ctr.fill_ins;
          // const_cast is confined to here: insertion is the one mutating
          // access-method operation, and only output relations reach it.
          p = const_cast<relation::IndexLevel&>(lvl).insert(parent_pos(a),
                                                            idx);
        } else {
          BERNOULLI_CHECK_MSG(false,
                              rel.view->name()
                                  << " missed a non-filtering probe at "
                                  << rel.vars[static_cast<std::size_t>(a.depth)]
                                  << " = " << idx);
        }
      } else {
        ++ctr.probe_hits;
      }
      set_pos(a, p);
    }
    return true;
  }

  void level(std::size_t d) {
    support::WorkCounts& ctr = rec_.work;
    if (d == plan_.levels.size()) {
      ++ctr.tuples;
      Env env{var_value_, leaf_positions()};
      action_(env);
      return;
    }
    const PlanLevel& lv = plan_.levels[d];
    const std::size_t slot = level_slot_[d];
    // Sampled switch-clock (support/profile.hpp): every K-th level-1
    // invocation — one per outer binding — opens a bracket; within it the
    // recursion books one segment per level transition. A bracket stays
    // open past its level-1 invocation so the trailing segment (the outer
    // level's enumeration work up to the next binding) is booked to
    // level 0 when the next level-1 invocation arrives.
    bool prof_opened = false;
    if (prof_on_) {
      if (d == 1) {
        if (prof_clock_.active()) {
          prof_clock_.leave(0, prof_kind_[0], 1);
          prof_clock_.close();
        }
        prof_opened = prof_clock_.maybe_open();
      } else if (d > 1 && prof_clock_.active()) {
        prof_clock_.enter(static_cast<int>(d), prof_kind_[d - 1]);
      }
    }
    // Bindings this invocation enumerated / passed on — one fan-out
    // histogram sample per invocation, per-level totals for the trace.
    long long inv_enumerated = 0;
    long long inv_produced = 0;

    if (lv.method == JoinMethod::kEnumerate) {
      const Access& drv = lv.drivers[0];
      level_of(drv).enumerate(parent_pos(drv), [&](index_t idx, index_t p) {
        ++ctr.enumerated;
        ++inv_enumerated;
        var_value_[slot] = idx;
        set_pos(drv, p);
        if (resolve_probes(d, lv)) {
          ++inv_produced;
          level(d + 1);
        }
        return true;
      });
    } else {
      // Multi-way merge join: materialize each driver's sorted segment and
      // intersect with a k-finger sweep. Segment buffers live in the
      // per-depth scratch, cleared (capacity kept) per invocation.
      const std::size_t k = lv.drivers.size();
      auto& segments_ = merge_scratch_[d];
      segments_.resize(k);
      long long seg_bytes = 0;
      for (std::size_t s = 0; s < k; ++s) {
        segments_[s].clear();
        level_of(lv.drivers[s])
            .enumerate(parent_pos(lv.drivers[s]),
                       [&](index_t idx, index_t p) {
                         ++ctr.enumerated;
                         ++inv_enumerated;
                         segments_[s].emplace_back(idx, p);
                         return true;
                       });
        seg_bytes += static_cast<long long>(segments_[s].size()) *
                     static_cast<long long>(sizeof(segments_[s][0]));
      }
      ctr.merge_segment_bytes += seg_bytes;
      std::vector<std::size_t> finger(k, 0);
      while (true) {
        ++ctr.merge_steps;
        bool done = false;
        index_t target = -1;
        for (std::size_t s = 0; s < k; ++s) {
          if (finger[s] >= segments_[s].size()) {
            done = true;
            break;
          }
          target = std::max(target, segments_[s][finger[s]].first);
        }
        if (done) break;
        bool all_match = true;
        for (std::size_t s = 0; s < k; ++s) {
          while (finger[s] < segments_[s].size() &&
                 segments_[s][finger[s]].first < target)
            ++finger[s];
          if (finger[s] >= segments_[s].size()) {
            all_match = false;
            done = true;
            break;
          }
          if (segments_[s][finger[s]].first != target) all_match = false;
        }
        if (done) break;
        if (all_match) {
          var_value_[slot] = target;
          for (std::size_t s = 0; s < k; ++s)
            set_pos(lv.drivers[s], segments_[s][finger[s]].second);
          if (resolve_probes(d, lv)) {
            ++inv_produced;
            level(d + 1);
          }
          for (std::size_t s = 0; s < k; ++s) ++finger[s];
        }
      }
    }
    rec_.add_fanout(d, inv_produced);
    produced_[d] += inv_produced;
    enumerated_[d] += inv_enumerated;
    if (prof_on_) {
      rec_.profile.add_work(static_cast<int>(d), prof_kind_[d], inv_produced);
      if (prof_opened) {
        // d == 1 here; the bracket stays open for the trailing level-0
        // segment (closed at the next outer binding, dropped at run end).
        prof_clock_.leave(1, prof_kind_[d], inv_produced);
      } else if (d > 1 && prof_clock_.active()) {
        prof_clock_.leave(static_cast<int>(d), prof_kind_[d], inv_produced);
      }
    }
  }

  std::vector<index_t> leaf_buffer_;
  std::span<const index_t> leaf_positions() {
    leaf_buffer_.resize(q_.relations.size());
    for (std::size_t r = 0; r < q_.relations.size(); ++r)
      leaf_buffer_[r] = pos_[r].back();
    return leaf_buffer_;
  }

  const Plan& plan_;
  const Query& q_;
  const Action& action_;
  std::vector<index_t> var_value_;
  std::vector<std::vector<index_t>> pos_;
  std::vector<long long> produced_;
  std::vector<long long> enumerated_;
  std::vector<std::size_t> level_slot_;              // var slot per level
  std::vector<std::vector<std::size_t>> probe_slots_;  // per level, per probe
  std::vector<std::vector<std::vector<std::pair<index_t, index_t>>>>
      merge_scratch_;  // per depth, per driver
  // Work counts, fan-out buckets and per-level attribution of this run.
  support::RunRecord rec_;
  support::ProfileClock prof_clock_;
  std::vector<int> prof_kind_;     // tuple/merge kind per plan level
  bool prof_on_ = false;
};

}  // namespace

namespace detail {

void emit_join_spans(const Plan& plan, const RunStats& stats, double t0,
                     double t1) {
  // One nested span per join level, carrying the tuple counts the run
  // actually saw. Both engines interleave levels (recursion / explicit
  // stack), so a level has no contiguous real interval; each span is drawn
  // over the whole execute window, shrunk by depth so the viewer nests
  // them.
  const support::TraceTrack track = support::trace_track();
  const double width = t1 - t0;
  const double step = width / (2.0 * static_cast<double>(plan.levels.size()) +
                               2.0);
  for (std::size_t d = 0; d < plan.levels.size(); ++d) {
    const PlanLevel& lv = plan.levels[d];
    support::JsonWriter args;
    args.begin_object();
    args.key("var").value(lv.var);
    args.key("method").value(lv.method == JoinMethod::kMerge ? "merge"
                                                             : "enumerate");
    args.key("enumerated").value(stats.levels[d].enumerated);
    args.key("produced").value(stats.levels[d].produced);
    args.end_object();
    const double inset = step * static_cast<double>(d + 1);
    support::trace_emit_complete("join " + lv.var, "compiler", t0 + inset,
                                 std::max(width - 2.0 * inset, 0.0),
                                 track.pid, track.tid, args.str());
  }
}

}  // namespace detail

void execute_interpreted(const Plan& plan, const Query& q,
                         const Action& action, RunStats* stats) {
  q.validate();
  // The interpreter has no link step: it takes the process's sink for its
  // level count, resolved once.
  const support::RunSink& sink = support::run_sink(plan.levels.size());
  const auto wall_t0 = std::chrono::steady_clock::now();
  Interpreter interp(plan, q, action);
  const bool tracing = support::trace_enabled();
  double t0 = 0.0;
  std::optional<support::TraceSpan> span;
  if (tracing) {
    span.emplace("execute", "compiler");
    t0 = support::trace_now_us();
  }
  interp.run();
  // One commit per run through the same names as the linked/specialized
  // engines, so the latency histogram count reconciles with
  // executor.runs for any engine.
  support::RunRecord& rec = interp.record();
  rec.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - wall_t0)
                    .count();
  sink.commit(rec);
  RunStats local;
  RunStats* st = (stats || tracing) ? (stats ? stats : &local) : nullptr;
  if (st) {
    st->tuples = rec.work.tuples;
    st->levels.assign(plan.levels.size(), LevelRunStats{});
    for (std::size_t d = 0; d < plan.levels.size(); ++d) {
      st->levels[d].enumerated = interp.enumerated(d);
      st->levels[d].produced = interp.produced(d);
    }
  }
  if (tracing) {
    const double t1 = support::trace_now_us();
    detail::emit_join_spans(plan, *st, t0, t1);
  }
}

Action multiply_accumulate(const Query& q, index_t target_rel,
                           std::vector<index_t> factor_rels, value_t scale) {
  BERNOULLI_CHECK(target_rel >= 0 &&
                  target_rel < static_cast<index_t>(q.relations.size()));
  relation::RelationView* target =
      q.relations[static_cast<std::size_t>(target_rel)].view;
  BERNOULLI_CHECK(target->writable());
  std::vector<relation::RelationView*> factors;
  for (index_t f : factor_rels) {
    BERNOULLI_CHECK(f >= 0 && f < static_cast<index_t>(q.relations.size()));
    factors.push_back(q.relations[static_cast<std::size_t>(f)].view);
  }
  std::vector<std::size_t> factor_slots(factor_rels.begin(), factor_rels.end());
  return [target, target_slot = static_cast<std::size_t>(target_rel), factors,
          factor_slots, scale](const Env& env) {
    value_t prod = scale;
    for (std::size_t k = 0; k < factors.size(); ++k)
      prod *= factors[k]->value_at(env.leaf_pos[factor_slots[k]]);
    target->value_add(env.leaf_pos[target_slot], prod);
  };
}

}  // namespace bernoulli::compiler
