// The benchmark's fixed workloads (input families with their serving
// rates), and the metric lists read from BENCHMARK.json.
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "support/json_reader.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  // Serving rates are constants: nominal = about half the family's
  // capacity on a 4-core host (grid3d 6.2k-6.8k, powerlaw 2.2k-2.9k req/s
  // at the 10 ms p99 limit).
  static const std::vector<Workload> w{
      {"grid3d", 3300},
      {"powerlaw", 1400},
  };
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

MetricLists load_metric_lists(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const bernoulli::support::JsonValue doc = bernoulli::support::json_parse(ss.str());
  auto list = [&](const char* key) {
    const bernoulli::support::JsonValue* arr = doc.find(key);
    if (arr == nullptr || !arr->is_array())
      throw std::runtime_error(path + ": no \"" + key + "\" list");
    std::vector<MetricSpec> out;
    for (const bernoulli::support::JsonValue& m : arr->items) {
      const auto* name = m.find("name");
      const auto* unit = m.find("unit");
      if (name == nullptr || unit == nullptr)
        throw std::runtime_error(path + ": a \"" + key + "\" entry lacks a name or unit");
      out.push_back({name->as_string(), unit->as_string()});
    }
    return out;
  };
  return {list("end_to_end"), list("per_layer")};
}

}  // namespace perfbench
