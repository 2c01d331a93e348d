// perfbench: the repository benchmark binary.
//
//   perfbench --workload <grid3d|powerlaw> --seed <n> --seconds <s>
//             --trace <0|1> [--record <file>] [--spans <file>]
//
// Every run drives the whole compile -> link -> execute pipeline on the
// workload's input family through three front ends — the engine ladder,
// the KernelServer under open-loop load and distributed CG — and measures
// a same-run calibration block. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}: BENCHMARK.json's
// end-to-end metrics when untraced, its per-layer metrics when traced.
// Oracle failures exit 1.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <string>

#include "bench.hpp"
#include "support/thread_pool.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

// Share of each epoch every phase measures for. The serving phase's
// minimum slice lengths (and, in the traced run, its three capacity
// searches) come on top, so a run measures for about --seconds in all.
constexpr double kLadderShare = 0.25;
constexpr double kServeShare = 0.3;
constexpr double kCgShare = 0.3;

// The benchmark's own reference kernel: a plain CSR loop over a fixed
// 4000 x 4000, 25k-entry random matrix (L2-resident), ~5 ms per call.
// Timed once per epoch, it shows how far the host's speed moved during
// the run (machine.ref_spread).
class ReferenceProbe {
 public:
  ReferenceProbe() : rp_(kN + 1), ci_(kNnz), v_(kNnz, 0.5), x_(kN, 1.0), y_(kN, 0.0) {
    for (std::size_t i = 0; i <= kN; ++i) rp_[i] = i * kNnz / kN;
    bernoulli::SplitMix64 rng(12345);
    for (std::size_t& c : ci_) c = rng.next_below(kN);
  }
  double ns_per_nnz() {
    constexpr int kReps = 200;
    const long long t0 = now_ns();
    for (int rep = 0; rep < kReps; ++rep)
      for (std::size_t i = 0; i < kN; ++i) {
        double a = 0;
        for (std::size_t p = rp_[i]; p < rp_[i + 1]; ++p) a += v_[p] * x_[ci_[p]];
        y_[i] += a;
      }
    return static_cast<double>(now_ns() - t0) / (kReps * static_cast<double>(kNnz));
  }

 private:
  static constexpr std::size_t kN = 4000, kNnz = 25000;
  std::vector<std::size_t> rp_, ci_;
  std::vector<double> v_, x_, y_;
};

std::string first_line_of(const char* cmd) {
  std::string out;
  if (std::FILE* p = ::popen(cmd, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p) != nullptr) out = buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

double clock_resolution_ns() {
  long long best = 1'000'000'000;
  for (int i = 0; i < 10000; ++i) {
    const long long a = now_ns();
    long long b = now_ns();
    while (b == a) b = now_ns();
    best = std::min(best, b - a);
  }
  return static_cast<double>(best);
}

// STREAM triad a = b + s * c over `threads` row chunks; arrays of 2M
// doubles (16 MiB each, 8x a 2 MiB per-core L2). Median GB/s counting 24
// bytes per element.
double stream_triad_gbps(int threads) {
  constexpr std::size_t kN = 2u << 20;
  std::vector<double> a(kN, 0.0), b(kN, 1.0), c(kN, 2.0);
  bernoulli::support::ThreadPool& pool = bernoulli::support::shared_pool(threads);
  auto triad = [&] {
    pool.run_slots(threads, [&](int slot) {
      const std::size_t lo = kN * static_cast<std::size_t>(slot) / static_cast<std::size_t>(threads);
      const std::size_t hi = kN * static_cast<std::size_t>(slot + 1) / static_cast<std::size_t>(threads);
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
  };
  triad();
  std::vector<double> gbps;
  for (int rep = 0; rep < 15; ++rep) {
    const long long t0 = now_ns();
    triad();
    gbps.push_back(24.0 * kN / static_cast<double>(now_ns() - t0));
  }
  if (a[kN / 2] != 7.0) std::fprintf(stderr, "stream triad produced %g\n", a[kN / 2]);
  return median(std::move(gbps));
}

// Empty run_slots(T) round trip on the shared pool.
double pool_dispatch_us(int threads) {
  bernoulli::support::ThreadPool& pool = bernoulli::support::shared_pool(threads);
  std::vector<double> t;
  for (int i = 0; i < 3000; ++i) {
    const long long t0 = now_ns();
    pool.run_slots(threads, [](int) {});
    if (i >= 200) t.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(t));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool listed(const std::vector<MetricSpec>& list, const std::string& name) {
  return std::any_of(list.begin(), list.end(), [&](const MetricSpec& m) { return m.name == name; });
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--record <file>] [--spans <file>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, record, spans;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoll(v.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) return usage("--seed wants a non-negative integer");
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 600)) return usage("--seconds wants (0, 600]");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace wants 0 or 1");
      trace = v == "1";
    } else if (a == "--record") {
      record = v;
    } else if (a == "--spans") {
      spans = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (seed < 0 || seconds < 0 || trace < 0) return usage("--seed, --seconds and --trace are required");

  Context ctx;
  ctx.workload = w;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.trace = trace == 1;
  ctx.tracer.enable(ctx.trace);
  ctx.nproc = static_cast<int>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  ctx.threads = std::min(4, ctx.nproc);

  try {
    const MetricLists lists = load_metric_lists(PERFBENCH_SPEC_PATH);
    // Same-run calibration block, first part (no large allocations).
    const double clock_ns = clock_resolution_ns();
    ctx.pool_dispatch_us = pool_dispatch_us(ctx.threads);

    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(make_spmv_ladder(ctx));
    phases.push_back(make_serve_openloop(ctx));
    phases.push_back(make_cg_solve(ctx));
    const double share[] = {kLadderShare, kServeShare, kCgShare};
    double setup_s = 0;
    for (auto& p : phases) setup_s += p->setup();
    ctx.set("setup_s", setup_s);
    const double epoch_s = seconds / kEpochs;
    ReferenceProbe ref;
    std::vector<double> ref_ns;
    const long long t_measure = now_ns();
    for (int e = 0; e < kEpochs; ++e) {
      ref_ns.push_back(ref.ns_per_nnz());
      for (std::size_t i = 0; i < phases.size(); ++i) phases[i]->epoch(e, share[i] * epoch_s);
    }
    std::fprintf(stderr, "measured %d epochs in %.2f s (set-up %.3f s)\n", kEpochs,
                 static_cast<double>(now_ns() - t_measure) * 1e-9, setup_s);
    // Peak RSS is read before the STREAM triad allocates its 48 MiB, so it
    // covers the pipeline's memory, not the calibration's.
    ctx.set("peak_rss_mb", peak_rss_mb());

    // Same-run calibration block, second part: the bandwidth base of the
    // roofline fractions that the phases' finish() computes.
    ctx.stream_gbps = stream_triad_gbps(1);
    ctx.stream_gbps_threaded = stream_triad_gbps(ctx.threads);
    const std::string cc = first_line_of("cc --version 2>/dev/null");
    char calib[2048];
    std::snprintf(calib, sizeof calib,
                  "{\"workload\": \"%s\", \"seed\": %lld, \"seconds\": %g, \"trace\": %d, "
                  "\"nproc\": %d, \"threads\": %d, \"cc\": \"%s\", "
                  "\"cxx_flags\": \"%s\", \"specializer_flags\": \"-O2 -fPIC -shared -ffp-contract=off\", "
                  "\"steady_clock_resolution_ns\": %g, \"stream_gbps\": %.6g, "
                  "\"stream_gbps_threaded\": %.6g, \"pool_dispatch_us\": %.6g}",
                  w->name.c_str(), seed, seconds, trace, ctx.nproc, ctx.threads, cc.c_str(),
                  PERFBENCH_CXX_FLAGS, clock_ns, ctx.stream_gbps, ctx.stream_gbps_threaded,
                  ctx.pool_dispatch_us);
    std::fprintf(stderr, "calibration: %s\n", calib);

    for (auto& p : phases) p->finish();
    ctx.set("machine.ref_spread", quantile(ref_ns, 0.75) / quantile(ref_ns, 0.25));
    ctx.series["machine.ref_ns_per_nnz"] = ref_ns;
    ctx.set("machine.stream_gbps", ctx.stream_gbps);
    ctx.set("support.pool_dispatch_us", ctx.pool_dispatch_us);

    // Result object: exactly the listed metrics, each present and finite,
    // and no measured metric missing from BENCHMARK.json.
    bool complete = true;
    for (const auto& kv : ctx.metrics)
      if (!listed(lists.end_to_end, kv.first) && !listed(lists.per_layer, kv.first)) {
        std::fprintf(stderr, "error: metric %s is not listed in BENCHMARK.json\n", kv.first.c_str());
        complete = false;
      }
    const std::vector<MetricSpec>& list = ctx.trace ? lists.per_layer : lists.end_to_end;
    std::string body;
    for (const MetricSpec& m : list) {
      const auto it = ctx.metrics.find(m.name);
      if (it == ctx.metrics.end() || !std::isfinite(it->second)) {
        std::fprintf(stderr, "error: metric %s was not measured\n", m.name.c_str());
        complete = false;
        continue;
      }
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    body.empty() ? "" : ", ", m.name.c_str(), it->second, m.unit.c_str());
      body += buf;
    }
    const bool correct = ctx.failed == 0 && complete;
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                  correct ? "true" : "false", ctx.attempted, ctx.failed);
    const std::string result = std::string(head) + body + "}}";

    if (!record.empty()) {
      std::FILE* f = std::fopen(record.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n", record.c_str());
        return 1;
      }
      std::fprintf(f, "{\"calibration\": %s,\n \"all_metrics\": {", calib);
      bool first = true;
      for (const auto& [k, v] : ctx.metrics) {
        std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
        first = false;
      }
      std::fprintf(f, "},\n \"samples\": {");
      first = true;
      for (const auto& [k, v] : ctx.series) {
        std::fprintf(f, "%s\"%s\": [", first ? "" : ", ", k.c_str());
        for (std::size_t i = 0; i < v.size(); ++i) std::fprintf(f, "%s%.17g", i ? ", " : "", v[i]);
        std::fprintf(f, "]");
        first = false;
      }
      std::fprintf(f, "},\n \"result\": %s}\n", result.c_str());
      std::fclose(f);
    }
    if (ctx.trace && !spans.empty() && !ctx.tracer.write_json(spans))
      std::fprintf(stderr, "error: cannot write %s\n", spans.c_str());

    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
