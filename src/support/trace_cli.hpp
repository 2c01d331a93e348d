// Command-line glue for the observability flags the benches and examples
// share: --trace=<file> (write the Chrome trace-event JSON),
// --comm-matrix (print the nprocs x nprocs message/byte matrix), and
// --report=<file> (write a bernoulli.run.v1 run report — the flag is
// parsed here so every bench spells it identically; the report itself is
// assembled by the bench via analysis/report.hpp AFTER obs_end()).
//
// obs_end() is deliberately strict: given the CommStats totals the caller
// gathered over every machine run inside the recording window, the comm
// matrix, the "send" span args inside the exported trace, and the
// comm.<phase>.* counter registry must all equal them EXACTLY — they are
// fed from the single booking site in runtime::Process::deliver, and a
// mismatch means double-booking or a dropped event, so it aborts loudly.
// Every traced bench run is thereby a reconciliation test.
#pragma once

#include <cstring>
#include <iostream>
#include <string>

#include "support/error.hpp"
#include "support/json_reader.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace bernoulli::support {

struct ObsOptions {
  std::string trace_path;    // --trace=<file>; empty = no trace
  bool comm_matrix = false;  // --comm-matrix
  std::string report_path;   // --report=<file>; empty = no run report
  bool active() const {
    return !trace_path.empty() || comm_matrix || !report_path.empty();
  }
  /// Run reports embed a critical path, so requesting one records spans
  /// too (in memory only; nothing hits disk unless --trace asked).
  bool tracing() const {
    return !trace_path.empty() || !report_path.empty();
  }
};

/// Consumes one argv entry; returns false when it is not an
/// observability flag (so the caller can keep its own parsing).
inline bool obs_parse_flag(const char* arg, ObsOptions& o) {
  if (std::strncmp(arg, "--trace=", 8) == 0) {
    o.trace_path = arg + 8;
    return true;
  }
  if (std::strcmp(arg, "--comm-matrix") == 0) {
    o.comm_matrix = true;
    return true;
  }
  if (std::strncmp(arg, "--report=", 9) == 0) {
    o.report_path = arg + 9;
    return true;
  }
  return false;
}

/// Starts recording. Resets the whole metrics registry, so obs_end's
/// comm.* reconciliation, the embedded comm.message_bytes histogram and
/// the execute.* metrics all cover exactly the window.
inline void obs_begin(const ObsOptions& o) {
  if (!o.active()) return;
  metrics_reset();
  if (o.tracing())
    trace_start();  // implies comm-matrix recording
  else
    comm_record_start();
}

/// Stops recording, writes/prints the artifacts, and asserts the
/// reconciliation invariant described above.
inline void obs_end(const ObsOptions& o, long long commstats_messages,
                    long long commstats_bytes) {
  if (!o.active()) return;
  trace_stop();
  comm_record_stop();

  CommMatrixSnapshot mat = comm_matrix_snapshot();
  BERNOULLI_CHECK_MSG(mat.total_messages == commstats_messages &&
                          mat.total_bytes == commstats_bytes,
                      "comm matrix (" << mat.total_messages << " msgs, "
                                      << mat.total_bytes
                                      << " bytes) != CommStats ("
                                      << commstats_messages << " msgs, "
                                      << commstats_bytes << " bytes)");

  long long counter_messages = 0;
  long long counter_bytes = 0;
  const MetricsSnapshot snap = metrics_snapshot();
  for (const auto& [name, v] : snap.counts) {
    if (!name.starts_with("comm.")) continue;
    if (name.ends_with(".messages")) counter_messages += v;
    if (name.ends_with(".bytes")) counter_bytes += v;
  }
  BERNOULLI_CHECK_MSG(counter_messages == commstats_messages &&
                          counter_bytes == commstats_bytes,
                      "comm.<phase>.* counters ("
                          << counter_messages << " msgs, " << counter_bytes
                          << " bytes) != CommStats (" << commstats_messages
                          << " msgs, " << commstats_bytes << " bytes)");

  if (o.tracing()) {
    // Reconcile the EXPORT, not internal state: parse the document that
    // will hit the disk (or feed the run report's critical path) and sum
    // the "send" span byte args.
    std::string json = trace_json();
    JsonValue doc = json_parse(json);
    long long span_messages = 0;
    long long span_bytes = 0;
    for (const JsonValue& ev : doc.find("traceEvents")->items) {
      if (ev.find("ph")->as_string() == "X" &&
          ev.find("name")->as_string() == "send") {
        ++span_messages;
        span_bytes += static_cast<long long>(
            ev.find("args")->find("bytes")->as_number());
      }
    }
    BERNOULLI_CHECK_MSG(span_messages == commstats_messages &&
                            span_bytes == commstats_bytes,
                        "trace send spans (" << span_messages << " msgs, "
                                             << span_bytes
                                             << " bytes) != CommStats ("
                                             << commstats_messages
                                             << " msgs, " << commstats_bytes
                                             << " bytes)");
    if (!o.trace_path.empty()) {
      trace_write(o.trace_path);
      std::cerr << "trace: " << o.trace_path << " ("
                << doc.find("traceEvents")->items.size() << " events, "
                << span_messages
                << " sends reconciled against CommStats; open in "
                   "ui.perfetto.dev)\n";
    }
  }

  if (o.comm_matrix) std::cout << "\n" << comm_matrix_text();
}

}  // namespace bernoulli::support
