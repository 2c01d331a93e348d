#include "support/profile.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "support/json_writer.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {

namespace {

std::atomic<bool> g_profiling{false};

const char* const kKindNames[kProfKinds] = {"tuple", "merge", "bulk",
                                            "blocked", "sliced"};
const char* const kPhaseNames[kProfPhases] = {"inspector", "exchange",
                                              "compute"};

long long calibrate_timer_cost() {
  // Cost of one profile_now_ns() call: time a tight loop of calls, best of
  // three passes so a scheduler hiccup cannot inflate the compensation
  // constant (over-compensation would clamp small levels to zero).
  constexpr int kCalls = 4096;
  long long best = 1 << 30;
  for (int pass = 0; pass < 3; ++pass) {
    const long long t0 = profile_now_ns();
    long long sink = 0;
    for (int i = 0; i < kCalls; ++i) sink += profile_now_ns();
    const long long t1 = profile_now_ns();
    if (sink == 0) std::abort();  // defeat dead-code elimination
    const long long per = (t1 - t0) / kCalls;
    if (per < best) best = per;
  }
  return best < 0 ? 0 : best;
}

// into += f over every ProfileFlush field.
void sum_flush(ProfileFlush& into, const ProfileFlush& f) {
  if (f.levels > into.levels) into.levels = f.levels;
  for (int d = 0; d < kProfileMaxLevels; ++d) {
    into.raw_incl_ns[d] += f.raw_incl_ns[d];
    for (int k = 0; k < kProfKinds; ++k) {
      into.self_ns[d][k] += f.self_ns[d][k];
      into.work[d][k] += f.work[d][k];
      into.samples[d][k] += f.samples[d][k];
      into.raw_ns[d][k] += f.raw_ns[d][k];
    }
  }
  into.wall_ns += f.wall_ns;
}

}  // namespace

const char* profile_kind_name(int kind) {
  return (kind >= 0 && kind < kProfKinds) ? kKindNames[kind] : "?";
}

const char* profile_phase_name(int phase) {
  return (phase >= 0 && phase < kProfPhases) ? kPhaseNames[phase] : "?";
}

void set_profiling(bool on) {
  if (on) (void)profile_timer_cost_ns();  // calibrate before the first run
  g_profiling.store(on, std::memory_order_relaxed);
}

bool profiling_enabled() {
  return g_profiling.load(std::memory_order_relaxed);
}

long long profile_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long long profile_timer_cost_ns() {
  static const long long cost = calibrate_timer_cost();
  return cost;
}

// ---------------------------------------------------------------------------
// ProfileScratch
// ---------------------------------------------------------------------------

void ProfileScratch::merge(const ProfileScratch& other) {
  if (other.levels > levels) levels = other.levels;
  for (int d = 0; d < kProfileMaxLevels; ++d) {
    incl_ns[d] += other.incl_ns[d];
    for (int k = 0; k < kProfKinds; ++k) {
      work[d][k] += other.work[d][k];
      sampled_work[d][k] += other.sampled_work[d][k];
      sampled_ns[d][k] += other.sampled_ns[d][k];
      samples[d][k] += other.samples[d][k];
    }
  }
}

bool ProfileScratch::any() const {
  for (int d = 0; d < kProfileMaxLevels; ++d)
    for (int k = 0; k < kProfKinds; ++k)
      if (work[d][k] != 0 || samples[d][k] != 0) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Estimation
// ---------------------------------------------------------------------------

ProfileFlush profile_estimate(const ProfileScratch& s, long long wall_ns) {
  const long long timer_cost = profile_timer_cost_ns();
  ProfileFlush f;
  f.levels = s.levels;
  f.wall_ns = wall_ns;
  for (int d = 0; d < kProfileMaxLevels; ++d) {
    f.raw_incl_ns[d] = s.incl_ns[d];
    for (int k = 0; k < kProfKinds; ++k) {
      f.work[d][k] = s.work[d][k];
      f.samples[d][k] = s.samples[d][k];
      f.raw_ns[d][k] = s.sampled_ns[d][k];
      long long comp = s.sampled_ns[d][k] - s.samples[d][k] * timer_cost;
      if (comp < 0) comp = 0;
      // Extrapolate by the exact work ratio when the segments carried work
      // counts; segments booked without work (pure transitions) scale by
      // the sampling period instead.
      long long est = comp;
      if (s.sampled_work[d][k] > 0 && s.work[d][k] > 0) {
        est = static_cast<long long>(
            static_cast<double>(comp) *
            (static_cast<double>(s.work[d][k]) /
             static_cast<double>(s.sampled_work[d][k])));
      } else if (s.samples[d][k] > 0) {
        est = comp * kProfileSampleEvery;
      }
      f.self_ns[d][k] = est;
    }
  }
  // The extrapolated total can overshoot a short run's wall clock (the
  // sampled bindings may be the expensive ones); clamp proportionally so
  // "% of run" stays meaningful.
  if (wall_ns > 0) {
    long long total = 0;
    for (int d = 0; d < kProfileMaxLevels; ++d)
      for (int k = 0; k < kProfKinds; ++k) total += f.self_ns[d][k];
    if (total > wall_ns) {
      const double scale =
          static_cast<double>(wall_ns) / static_cast<double>(total);
      for (int d = 0; d < kProfileMaxLevels; ++d)
        for (int k = 0; k < kProfKinds; ++k)
          f.self_ns[d][k] = static_cast<long long>(
              static_cast<double>(f.self_ns[d][k]) * scale);
    }
  }
  return f;
}

ProfilePhaseScope::ProfilePhaseScope(int phase)
    : phase_(phase), t0_(0), on_(profiling_enabled()) {
  if (on_) t0_ = profile_now_ns();
}

ProfilePhaseScope::~ProfilePhaseScope() {
  if (on_) profile_phase_add(phase_, profile_now_ns() - t0_);
}

// ---------------------------------------------------------------------------
// Snapshot arithmetic
// ---------------------------------------------------------------------------

long long ProfileSnapshot::level_self_ns(int level) const {
  if (level < 0 || level >= kProfileMaxLevels) return 0;
  long long total = 0;
  for (int k = 0; k < kProfKinds; ++k) total += self_ns[level][k];
  return total;
}

long long ProfileSnapshot::level_incl_ns(int level) const {
  long long total = 0;
  for (int d = level; d < kProfileMaxLevels; ++d)
    if (d >= 0) total += level_self_ns(d);
  return total;
}

long long ProfileSnapshot::total_self_ns() const { return level_incl_ns(0); }

long long ProfileSnapshot::level_work(int level) const {
  if (level < 0 || level >= kProfileMaxLevels) return 0;
  long long total = 0;
  for (int k = 0; k < kProfKinds; ++k) total += work[level][k];
  return total;
}

void ProfileSnapshot::add(const ProfileFlush& f) {
  sum_flush(*this, f);
  runs += 1;
}

void ProfileSnapshot::merge(const ProfileSnapshot& o) {
  sum_flush(*this, o);
  runs += o.runs;
  for (int p = 0; p < kProfPhases; ++p) {
    phase_ns[p] += o.phase_ns[p];
    phase_calls[p] += o.phase_calls[p];
  }
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

std::string profile_json() {
  const ProfileSnapshot s = profile_snapshot();
  bool any_phase = false;
  for (int p = 0; p < kProfPhases; ++p)
    if (s.phase_calls[p] != 0) any_phase = true;
  if (s.runs == 0 && !any_phase) return "{}";

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("bernoulli.profile.v1");
  w.key("runs").value(s.runs);
  w.key("wall_ns").value(s.wall_ns);
  w.key("total_self_ns").value(s.total_self_ns());
  w.key("timer_cost_ns").value(s.timer_cost_ns);
  w.key("sample_every").value(kProfileSampleEvery);
  w.key("levels").begin_array();
  for (int d = 0; d < s.levels && d < kProfileMaxLevels; ++d) {
    w.begin_object();
    w.key("level").value(d);
    w.key("self_ns").value(s.level_self_ns(d));
    w.key("incl_ns").value(s.level_incl_ns(d));
    w.key("work").value(s.level_work(d));
    w.key("raw_incl_ns").value(s.raw_incl_ns[d]);
    w.key("kinds").begin_array();
    for (int k = 0; k < kProfKinds; ++k) {
      if (s.work[d][k] == 0 && s.samples[d][k] == 0) continue;
      w.begin_object();
      w.key("kind").value(profile_kind_name(k));
      w.key("self_ns").value(s.self_ns[d][k]);
      w.key("work").value(s.work[d][k]);
      w.key("samples").value(s.samples[d][k]);
      w.key("raw_ns").value(s.raw_ns[d][k]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("phases").begin_array();
  for (int p = 0; p < kProfPhases; ++p) {
    if (s.phase_calls[p] == 0) continue;
    w.begin_object();
    w.key("phase").value(profile_phase_name(p));
    w.key("ns").value(s.phase_ns[p]);
    w.key("calls").value(s.phase_calls[p]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string profile_collapsed() {
  const ProfileSnapshot s = profile_snapshot();
  std::string out;
  for (int d = 0; d < s.levels && d < kProfileMaxLevels; ++d) {
    for (int k = 0; k < kProfKinds; ++k) {
      if (s.self_ns[d][k] == 0 && s.work[d][k] == 0) continue;
      std::string stack = "plan";
      for (int up = 0; up <= d; ++up)
        stack += ";level" + std::to_string(up);
      stack += ';';
      stack += profile_kind_name(k);
      out += stack + ' ' + std::to_string(s.self_ns[d][k]) + '\n';
    }
  }
  for (int p = 0; p < kProfPhases; ++p) {
    if (s.phase_calls[p] == 0) continue;
    out += std::string("plan;") + profile_phase_name(p) + ' ' +
           std::to_string(s.phase_ns[p]) + '\n';
  }
  return out;
}

bool profile_parse_collapsed(
    std::string_view text,
    std::vector<std::pair<std::string, long long>>* out) {
  out->clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string_view::npos || sp == 0 || sp + 1 >= line.size())
      return false;
    const std::string_view frames = line.substr(0, sp);
    const std::string_view count = line.substr(sp + 1);
    long long value = 0;
    for (char c : count) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + (c - '0');
    }
    out->emplace_back(std::string(frames), value);
  }
  return true;
}

}  // namespace bernoulli::support
