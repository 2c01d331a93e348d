// Tests for the span tracer (support/trace.hpp): Chrome trace-event JSON
// validity (round-tripped through the strict parser), send->recv flow
// pairing on a 4-rank distributed SpMV, and the reconciliation invariant —
// comm-matrix totals, send-span byte args, comm.<phase>.bytes counters and
// runtime::CommStats must all agree exactly, because they are all fed from
// the single booking site in runtime::Process::deliver.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "distrib/distribution.hpp"
#include "formats/csr.hpp"
#include "runtime/machine.hpp"
#include "spmd/matvec.hpp"
#include "support/json_reader.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "support/trace_cli.hpp"
#include "workloads/grid.hpp"

namespace bernoulli::support {
namespace {

const JsonValue& events_of(const JsonValue& doc) {
  const JsonValue* evs = doc.find("traceEvents");
  EXPECT_NE(evs, nullptr);
  EXPECT_TRUE(evs->is_array());
  return *evs;
}

TEST(Trace, JsonValidityRoundTrip) {
  trace_start();
  {
    TraceSpan outer("outer \"span\"\nwith\x01control", "test");
    outer.arg("text", std::string_view("a\tb\x02"))
        .arg("n", 42LL)
        .arg("x", 2.5);
    TraceSpan inner("inner", "test");
    trace_instant("tick", "test");
    trace_counter("gauge", 7.0);
  }
  trace_stop();

  // The exported document must survive the strict RFC 8259 parser even
  // with control characters and quotes in names and args.
  JsonValue doc = json_parse(trace_json());
  const JsonValue& evs = events_of(doc);
  ASSERT_GE(evs.items.size(), 4u);

  std::map<std::string, int> by_ph;
  bool found_outer = false;
  for (const JsonValue& ev : evs.items) {
    ++by_ph[ev.find("ph")->as_string()];
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    if (ev.find("name")->as_string() ==
        std::string("outer \"span\"\nwith\x01control")) {
      found_outer = true;
      const JsonValue* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("text")->as_string(), std::string("a\tb\x02"));
      EXPECT_EQ(args->find("n")->as_number(), 42);
      EXPECT_EQ(args->find("x")->as_number(), 2.5);
    }
  }
  EXPECT_TRUE(found_outer);
  EXPECT_EQ(by_ph["X"], 2);
  EXPECT_EQ(by_ph["i"], 1);
  EXPECT_EQ(by_ph["C"], 1);

  // Pretty-printed output parses to the same event count.
  EXPECT_EQ(events_of(json_parse(trace_json(2))).items.size(),
            evs.items.size());

  EXPECT_EQ(doc.find("bernoulli")->find("schema")->as_string(),
            "bernoulli.trace.v1");
}

TEST(Trace, DisabledRecordsNothing) {
  trace_start();
  trace_stop();
  { TraceSpan span("after stop", "test"); }
  trace_instant("after stop", "test");
  EXPECT_EQ(events_of(json_parse(trace_json())).items.size(), 0u);
}

TEST(Trace, FourRankMatvecFlowsAndReconciliation) {
  auto g = workloads::grid3d_7pt(4, 4, 3, 2, 21);
  formats::Csr a = formats::Csr::from_coo(g.matrix);
  const int P = 4;
  distrib::BlockDist rows(a.rows(), P);

  metrics_reset();
  trace_start();
  runtime::Machine machine(P);
  auto reports = machine.run([&](runtime::Process& p) {
    spmd::DistSpmv dist = spmd::build_dist_spmv(p, a, rows, //
                                                spmd::Variant::kBernoulliMixed);
    Vector x_full(static_cast<std::size_t>(dist.sched.full_size()), 1.0);
    Vector y(static_cast<std::size_t>(dist.sched.owned), 0.0);
    dist.apply(p, x_full, y, /*tag=*/7);
  });
  trace_stop();

  JsonValue doc = json_parse(trace_json());
  const JsonValue& evs = events_of(doc);

  // --- one track per rank, on a machine pid, named "rank <r>" ----------
  std::set<int> machine_pids;
  std::map<int, std::set<int>> rank_tids;  // pid -> tids with comm spans
  std::map<long long, int> flow_starts, flow_ends;
  long long span_send_bytes = 0, span_send_count = 0;
  for (const JsonValue& ev : evs.items) {
    const std::string& ph = ev.find("ph")->as_string();
    const std::string& name = ev.find("name")->as_string();
    int pid = static_cast<int>(ev.find("pid")->as_number());
    if (ph == "M" && name == "process_name") machine_pids.insert(pid);
    if (ph == "X" && name == "send") {
      rank_tids[pid].insert(static_cast<int>(ev.find("tid")->as_number()));
      span_send_bytes +=
          static_cast<long long>(ev.find("args")->find("bytes")->as_number());
      ++span_send_count;
    }
    if (ph == "s") ++flow_starts[static_cast<long long>(
        ev.find("id")->as_number())];
    if (ph == "f") {
      ++flow_ends[static_cast<long long>(ev.find("id")->as_number())];
      // Flow ends must bind to the enclosing slice.
      EXPECT_EQ(ev.find("bp")->as_string(), "e");
    }
  }
  ASSERT_EQ(machine_pids.size(), 1u);
  const int pid = *machine_pids.begin();
  EXPECT_GE(pid, 100);  // machine pids start at 100; host is pid 1
  EXPECT_EQ(rank_tids[pid], (std::set<int>{0, 1, 2, 3}));

  // --- flow pairing: every send arrow lands exactly once ---------------
  ASSERT_FALSE(flow_starts.empty());
  EXPECT_EQ(flow_starts.size(), flow_ends.size());
  for (const auto& [id, n] : flow_starts) {
    EXPECT_EQ(n, 1) << "flow " << id;
    EXPECT_EQ(flow_ends[id], 1) << "flow " << id;
  }
  EXPECT_EQ(static_cast<long long>(flow_starts.size()), span_send_count);

  // --- reconciliation: four independent byte totals, one booking site --
  long long stats_bytes = 0, stats_messages = 0;
  for (const auto& r : reports) {
    stats_bytes += r.stats.bytes;
    stats_messages += r.stats.messages;
  }
  ASSERT_GT(stats_bytes, 0);

  CommMatrixSnapshot mat = comm_matrix_snapshot();
  EXPECT_EQ(mat.nprocs, P);
  EXPECT_EQ(mat.total_bytes, stats_bytes);
  EXPECT_EQ(mat.total_messages, stats_messages);
  for (int r = 0; r < P; ++r)  // no self-messages in the matrix
    EXPECT_EQ(mat.messages_at(r, r), 0);

  EXPECT_EQ(span_send_bytes, stats_bytes);
  EXPECT_EQ(span_send_count, stats_messages);

  long long counter_bytes = 0, counter_messages = 0;
  auto snap = metrics_snapshot();
  for (const auto& [name, v] : snap.counts) {
    if (name.rfind("comm.", 0) != 0) continue;
    if (name.size() >= 6 && name.compare(name.size() - 6, 6, ".bytes") == 0)
      counter_bytes += v;
    if (name.size() >= 9 &&
        name.compare(name.size() - 9, 9, ".messages") == 0)
      counter_messages += v;
  }
  EXPECT_EQ(counter_bytes, stats_bytes);
  EXPECT_EQ(counter_messages, stats_messages);

  // The embedded comm_matrix report carries the same totals.
  const JsonValue* embedded = doc.find("bernoulli")->find("comm_matrix");
  ASSERT_NE(embedded, nullptr);
  EXPECT_EQ(embedded->find("total_bytes")->as_number(),
            static_cast<double>(stats_bytes));

  // The message-size histogram saw every message exactly once.
  auto hists = metrics_snapshot().log2;
  long long hist_total = 0;
  for (long long c : hists.at("comm.message_bytes")) hist_total += c;
  EXPECT_EQ(hist_total, stats_messages);

  std::string text = comm_matrix_text();
  EXPECT_NE(text.find("total: " + std::to_string(stats_messages) +
                      " messages, " + std::to_string(stats_bytes) + " bytes"),
            std::string::npos);
}

TEST(Trace, CommMatrixWithoutTracing) {
  // --comm-matrix without --trace: recording works with tracing off.
  trace_stop();
  comm_record_start();
  EXPECT_FALSE(trace_enabled());
  EXPECT_TRUE(comm_record_enabled());
  comm_matrix_record(0, 1, 100);
  comm_matrix_record(1, 0, 50);
  comm_matrix_record(0, 1, 100);
  comm_record_stop();
  CommMatrixSnapshot snap = comm_matrix_snapshot();
  EXPECT_EQ(snap.messages_at(0, 1), 2);
  EXPECT_EQ(snap.bytes_at(0, 1), 200);
  EXPECT_EQ(snap.bytes_at(1, 0), 50);
}

// A run that records no spans and sends no messages must still export a
// bernoulli.trace.v1 document that round-trips, and the strict obs_end
// reconciliation epilogue must accept the all-zeros totals instead of
// aborting on an empty comm matrix / empty histogram set.
TEST(Trace, ZeroSpanZeroMessageRunExportsAndReconciles) {
  metrics_reset();
  const std::string path =
      ::testing::TempDir() + "/zero_span_trace_test.json";
  ObsOptions o;
  o.trace_path = path;
  obs_begin(o);
  runtime::Machine m(1);
  m.run([](runtime::Process&) {});
  EXPECT_NO_THROW(obs_end(o, /*commstats_messages=*/0,
                          /*commstats_bytes=*/0));

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  JsonValue doc = json_parse(ss.str());
  const JsonValue* meta = doc.find("bernoulli");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("schema")->as_string(), "bernoulli.trace.v1");
  const JsonValue* mat = meta->find("comm_matrix");
  ASSERT_NE(mat, nullptr);
  EXPECT_EQ(mat->find("nprocs")->as_number(), 0);
  EXPECT_EQ(mat->find("total_bytes")->as_number(), 0);
  const JsonValue* reg = meta->find("metrics_registry");
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->find("schema")->as_string(), "bernoulli.metrics.v2");
  EXPECT_TRUE(reg->find("log2")->members.empty());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Only metadata events (process/thread names), no "X" spans.
  for (const JsonValue& ev : events->items)
    EXPECT_NE(ev.find("ph")->as_string(), "X");
  std::remove(path.c_str());
}

// obs_begin opens the window over the WHOLE registry: messages sent
// before it must not leak into the trace document's embedded
// comm.message_bytes histogram, which must count exactly the window's
// comm.<phase>.messages.
TEST(Trace, ObservationWindowResetsWholeRegistry) {
  auto g = workloads::grid3d_7pt(4, 4, 3, 2, 21);
  formats::Csr a = formats::Csr::from_coo(g.matrix);
  const int P = 4;
  distrib::BlockDist rows(a.rows(), P);
  auto matvec = [&] {
    runtime::Machine machine(P);
    auto reports = machine.run([&](runtime::Process& p) {
      spmd::DistSpmv dist = spmd::build_dist_spmv(
          p, a, rows, spmd::Variant::kBernoulliMixed);
      Vector x_full(static_cast<std::size_t>(dist.sched.full_size()), 1.0);
      Vector y(static_cast<std::size_t>(dist.sched.owned), 0.0);
      dist.apply(p, x_full, y, /*tag=*/7);
    });
    std::pair<long long, long long> totals{0, 0};
    for (const auto& r : reports) {
      totals.first += r.stats.messages;
      totals.second += r.stats.bytes;
    }
    return totals;
  };
  matvec();  // traffic before the window

  const std::string path = ::testing::TempDir() + "/window_trace_test.json";
  ObsOptions o;
  o.trace_path = path;
  obs_begin(o);
  const auto [messages, bytes] = matvec();
  obs_end(o, messages, bytes);
  ASSERT_GT(messages, 0);

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const JsonValue doc = json_parse(ss.str());
  const JsonValue* reg = doc.find("bernoulli")->find("metrics_registry");
  ASSERT_NE(reg, nullptr);
  long long window_messages = 0;
  for (const auto& [name, v] : reg->find("counts")->members)
    if (name.starts_with("comm.") && name.ends_with(".messages"))
      window_messages += static_cast<long long>(v.as_number());
  EXPECT_EQ(window_messages, messages);
  const JsonValue* hist = reg->find("log2")->find("comm.message_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(static_cast<long long>(hist->find("total")->as_number()),
            window_messages);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bernoulli::support
