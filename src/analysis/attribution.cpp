#include "analysis/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bernoulli::analysis {

namespace {

using support::JsonValue;

double num_or(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  if (!v || v->type != JsonValue::Type::kNumber) return fallback;
  return v->number;
}

std::string str_or(const JsonValue& obj, const char* key,
                   const char* fallback) {
  const JsonValue* v = obj.find(key);
  if (!v || v->type != JsonValue::Type::kString) return fallback;
  return v->str;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void pad_to(std::string& line, std::size_t col) {
  while (line.size() < col) line += ' ';
}

}  // namespace

bool profile_block_nonempty(const JsonValue& profile) {
  if (!profile.is_object()) return false;
  const JsonValue* schema = profile.find("schema");
  return schema && schema->type == JsonValue::Type::kString &&
         schema->str == "bernoulli.profile.v1";
}

std::string profile_table_text(const JsonValue& profile) {
  if (!profile_block_nonempty(profile)) return "";
  const double runs = num_or(profile, "runs", 0);
  const double wall_ns = num_or(profile, "wall_ns", 0);
  const double total_self = num_or(profile, "total_self_ns", 0);
  const double timer_cost = num_or(profile, "timer_cost_ns", 0);
  const double attributed =
      wall_ns > 0 ? 100.0 * total_self / wall_ns : 0.0;

  std::string out = "per-level time attribution: " +
                    fmt("%.0f", runs) + " runs, wall " +
                    fmt("%.3e", wall_ns * 1e-9) + " s, " +
                    fmt("%.1f", attributed) + "% attributed, timer cost " +
                    fmt("%.0f", timer_cost) + " ns\n";
  out += "  level        self_ns   % run          work    ns/work  kinds\n";

  const JsonValue* levels = profile.find("levels");
  if (levels && levels->is_array()) {
    for (const JsonValue& lvl : levels->items) {
      if (!lvl.is_object()) continue;
      const double d = num_or(lvl, "level", 0);
      const double self_ns = num_or(lvl, "self_ns", 0);
      const double work = num_or(lvl, "work", 0);
      const double pct = wall_ns > 0 ? 100.0 * self_ns / wall_ns : 0.0;
      const double per_work = work > 0 ? self_ns / work : 0.0;

      std::string line = "  level" + fmt("%.0f", d);
      pad_to(line, 9);
      std::string cell = fmt("%.0f", self_ns);
      pad_to(line, 21 - std::min<std::size_t>(cell.size(), 12));
      line += cell;
      cell = fmt("%.1f", pct);
      pad_to(line, 29 - std::min<std::size_t>(cell.size(), 7));
      line += cell;
      cell = fmt("%.0f", work);
      pad_to(line, 43 - std::min<std::size_t>(cell.size(), 13));
      line += cell;
      cell = fmt("%.1f", per_work);
      pad_to(line, 54 - std::min<std::size_t>(cell.size(), 10));
      line += cell;
      line += "  ";

      // Kind mix, largest share of this level's self time first.
      const JsonValue* kinds = lvl.find("kinds");
      std::vector<std::pair<double, std::string>> mix;
      if (kinds && kinds->is_array()) {
        for (const JsonValue& k : kinds->items) {
          if (!k.is_object()) continue;
          mix.emplace_back(num_or(k, "self_ns", 0), str_or(k, "kind", "?"));
        }
      }
      std::stable_sort(mix.begin(), mix.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
      bool first = true;
      for (const auto& [kind_ns, kind_name] : mix) {
        if (!first) line += ", ";
        first = false;
        line += kind_name;
        if (self_ns > 0) {
          line += ' ';
          line += fmt("%.0f", 100.0 * kind_ns / self_ns);
          line += '%';
        }
      }
      if (mix.empty()) line += "-";
      out += line + "\n";
    }
  }

  const JsonValue* phases = profile.find("phases");
  if (phases && phases->is_array() && !phases->items.empty()) {
    std::string line = "  phases: ";
    bool first = true;
    for (const JsonValue& p : phases->items) {
      if (!p.is_object()) continue;
      if (!first) line += ", ";
      first = false;
      line += str_or(p, "phase", "?") + " " +
              fmt("%.3e", num_or(p, "ns", 0) * 1e-9) + " s (" +
              fmt("%.0f", num_or(p, "calls", 0)) + ")";
    }
    out += line + "\n";
  }
  return out;
}

std::vector<std::pair<std::string, double>> profile_flat_metrics(
    const JsonValue& profile) {
  std::vector<std::pair<std::string, double>> out;
  if (!profile_block_nonempty(profile)) return out;
  const JsonValue* levels = profile.find("levels");
  if (levels && levels->is_array()) {
    for (const JsonValue& lvl : levels->items) {
      if (!lvl.is_object()) continue;
      const std::string base =
          "profile.level" + fmt("%.0f", num_or(lvl, "level", 0));
      out.emplace_back(base + ".self_ns", num_or(lvl, "self_ns", 0));
      const JsonValue* kinds = lvl.find("kinds");
      if (!kinds || !kinds->is_array()) continue;
      for (const JsonValue& k : kinds->items) {
        if (!k.is_object()) continue;
        out.emplace_back(base + "." + str_or(k, "kind", "?") + ".self_ns",
                         num_or(k, "self_ns", 0));
      }
    }
  }
  const JsonValue* phases = profile.find("phases");
  if (phases && phases->is_array()) {
    for (const JsonValue& p : phases->items) {
      if (!p.is_object()) continue;
      out.emplace_back("profile.phase." + str_or(p, "phase", "?") + ".ns",
                       num_or(p, "ns", 0));
    }
  }
  return out;
}

std::string profile_diff_text(const JsonValue& base, const JsonValue& next,
                              std::size_t top_n) {
  const auto a = profile_flat_metrics(base);
  const auto b = profile_flat_metrics(next);
  if (a.empty() || b.empty()) return "";

  struct Delta {
    std::string name;
    double base_v;
    double next_v;
  };
  std::vector<Delta> deltas;
  for (const auto& [name, next_v] : b) {
    double base_v = 0.0;
    for (const auto& [bn, bv] : a)
      if (bn == name) {
        base_v = bv;
        break;
      }
    if (next_v != base_v) deltas.push_back({name, base_v, next_v});
  }
  if (deltas.empty()) return "";
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const Delta& x, const Delta& y) {
                     return std::fabs(x.next_v - x.base_v) >
                            std::fabs(y.next_v - y.base_v);
                   });
  if (deltas.size() > top_n) deltas.resize(top_n);

  std::string out;
  for (const Delta& d : deltas) {
    const double diff = d.next_v - d.base_v;
    std::string line = "  " + d.name;
    pad_to(line, 36);
    line += diff >= 0 ? "+" : "";
    line += fmt("%.0f", diff);
    line += " ns";
    if (d.base_v > 0)
      line += " (" + std::string(diff >= 0 ? "+" : "") +
              fmt("%.1f", 100.0 * diff / d.base_v) + "%)";
    out += line + "\n";
  }
  return out;
}

}  // namespace bernoulli::analysis
