// Tests of the benchmark's own helpers (harness.hpp, catalog.cpp) and of
// BENCHMARK.json. Exits 0 when every check passes; prints each failure.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "support/json_reader.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void test_poisson_schedule() {
  const auto a = poisson_schedule(1000.0, 20.0, 7);
  const auto b = poisson_schedule(1000.0, 20.0, 7);
  const auto c = poisson_schedule(1000.0, 20.0, 8);
  CHECK(a == b);
  CHECK(a != c);
  // 20000 expected arrivals; the Poisson count's sd is ~141, so 3% is > 4 sd.
  CHECK(std::abs(static_cast<double>(a.size()) - 20000.0) < 600.0);
  CHECK(std::is_sorted(a.begin(), a.end()));
  CHECK(!a.empty() && a.front() >= 0 && a.back() < 20'000'000'000LL);
  // Mean gap 1 ms within 3%.
  const double mean_gap = static_cast<double>(a.back() - a.front()) / static_cast<double>(a.size() - 1);
  CHECK(std::abs(mean_gap - 1e6) < 3e4);
  CHECK(poisson_schedule(0.0, 1.0, 1).empty());
}

void test_zipf() {
  const Zipf z(4, 1.0);
  const double h = 1.0 + 1.0 / 2 + 1.0 / 3 + 1.0 / 4;
  for (int k = 0; k < 4; ++k) CHECK(std::abs(z.probability(k) - (1.0 / (k + 1)) / h) < 1e-12);
  bernoulli::SplitMix64 r1(3), r2(3);
  std::vector<int> count(4, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const int a = z.sample(r1);
    CHECK(a == z.sample(r2));
    CHECK(a >= 0 && a < 4);
    ++count[static_cast<std::size_t>(a)];
  }
  for (int k = 0; k < 4; ++k)
    CHECK(std::abs(count[static_cast<std::size_t>(k)] / static_cast<double>(kDraws) - z.probability(k)) < 0.005);
}

void test_percentile_rule() {
  CHECK(samples_beyond(1000, 990) == 10);
  CHECK(samples_beyond(999, 990) == 9);
  CHECK(highest_reportable_per_mille(1000) == 990);
  CHECK(highest_reportable_per_mille(999) == 900);
  CHECK(highest_reportable_per_mille(10000) == 999);
  CHECK(highest_reportable_per_mille(100) == 900);
  CHECK(highest_reportable_per_mille(99) == 500);
  CHECK(highest_reportable_per_mille(19) == 0);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(quantile_sorted(v, 0.99) == 990);
  CHECK(quantile_sorted(v, 0.5) == 500);
  CHECK(quantile_sorted(v, 1.0) == 1000);
  CHECK(quantile_sorted({}, 0.5) == 0);
  CHECK(median({4, 1, 3, 2, 10, 9, 8, 7}) == 4);
}

void test_geomean() {
  CHECK(std::abs(geomean({1.0, 4.0}) - 2.0) < 1e-12);
  CHECK(std::abs(geomean({2.0, 8.0, 4.0}) - 4.0) < 1e-12);
  CHECK(geomean({}) == 0.0);
  CHECK(geomean({1.0, 0.0}) == 0.0);
  CHECK(geomean({1.0, -2.0}) == 0.0);
}

void test_names() {
  CHECK(valid_metric_name("serve_p99_us"));
  CHECK(valid_metric_name("compiler.linked.ns_per_nnz.csr"));
  CHECK(valid_metric_name("a-b_c.9"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".leading_dot"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/name"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
}

void test_self_time() {
  Tracer t;
  t.enable(true);
  t.record("parent", 0, 100, -1, 1);
  t.record("a", 10, 40, 0, 1);
  t.record("b", 30, 50, 0, 1);    // overlaps a: union [10, 50)
  t.record("c", 90, 120, 0, 1);   // clipped to the parent: [90, 100)
  const auto self = t.self_times();
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 30 && self[2] == 20 && self[3] == 30);
}

// BENCHMARK.json, which perfbench emits its metrics from: every metric
// name valid and used once, every end-to-end bound in (0, 0.25], and the
// workloads the catalog's. (Every run checks that it measures exactly the
// listed metrics.)
void test_spec(const char* path) {
  const MetricLists lists = load_metric_lists(path);
  CHECK(!lists.end_to_end.empty() && !lists.per_layer.empty());
  std::set<std::string> seen;
  for (const auto* list : {&lists.end_to_end, &lists.per_layer})
    for (const MetricSpec& m : *list) {
      CHECK(valid_metric_name(m.name));
      CHECK(seen.insert(m.name).second);
      CHECK(!m.unit.empty());
    }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const bernoulli::support::JsonValue doc = bernoulli::support::json_parse(ss.str());
  for (const auto& m : doc.find("end_to_end")->items) {
    const double bound = m.find("bound")->as_number();
    CHECK(bound > 0 && bound <= 0.25);
  }
  const auto* wl = doc.find("workloads");
  CHECK(wl != nullptr && wl->items.size() == workloads().size());
  if (wl != nullptr)
    for (std::size_t i = 0; i < wl->items.size() && i < workloads().size(); ++i)
      CHECK(wl->items[i].find("name")->str == workloads()[i].name);
}

}  // namespace

int main() {
  test_poisson_schedule();
  test_zipf();
  test_percentile_rule();
  test_geomean();
  test_names();
  test_self_time();
  test_spec(PERFBENCH_SPEC_PATH);
  if (failures == 0) std::printf("perfbench_helpers_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
