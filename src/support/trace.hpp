// Span tracing: per-thread virtual/wall timelines exported as Chrome
// trace-event JSON (load the file in Perfetto / chrome://tracing).
//
// The tracer is a process-global registry of per-thread event buffers.
// Each thread appends to its own buffer under its own (uncontended) mutex,
// so recording never blocks on another thread; export locks every buffer
// once and merges. Tracing is OFF by default — every entry point checks
// one relaxed atomic and returns, so instrumented hot paths stay free
// until a bench passes --trace.
//
// Tracks. Every event lands on a (pid, tid) track. Host threads default to
// pid 1 ("host", wall-clock microseconds since trace_start()). The
// simulated machine registers a fresh pid per runtime::Machine::run and
// lays each rank on its own tid with timestamps in VIRTUAL microseconds —
// the per-rank timeline a dedicated-node MPI profiler would show. A
// TraceTrackScope installs the (pid, tid) pair and the clock for the
// current thread; RAII restores the previous track.
//
// Event kinds (Chrome trace-event phases):
//   TraceSpan            RAII "X" complete event; nestable; carries args
//   trace_instant        "i" instant on the current track
//   trace_counter        "C" counter sample (Perfetto draws a step graph)
//   trace_emit_*         explicit-timestamp variants for code (the
//                        simulated machine) that computes its own clock
//   flow events          "s"/"f" pairs with a shared id: Perfetto draws
//                        the arrow from the matching send span to the
//                        recv span across rank tracks
//
// Alongside the raw trace the module accumulates a communication matrix:
// per (src, dst) message/byte totals fed by runtime::Process::deliver
// from exactly the call sites that book runtime::CommStats and the
// comm.<phase>.* counters, so matrix row/column sums reconcile exactly
// with both (asserted by tests/trace_test.cpp and the --trace benches).
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "support/json_writer.hpp"

namespace bernoulli::support {

// ---- global switches --------------------------------------------------

/// True between trace_start() and trace_stop().
bool trace_enabled();

/// Clears all buffers, resets the wall-clock origin and the comm matrix,
/// and enables recording. Also enables comm-matrix recording.
void trace_start();

/// Stops recording; buffered events stay available for export.
void trace_stop();

/// Comm-matrix recording is independent of full tracing (--comm-matrix
/// without --trace): start clears and enables, stop disables.
bool comm_record_enabled();
void comm_record_start();
void comm_record_stop();

// ---- tracks and clocks ------------------------------------------------

struct TraceTrack {
  int pid = 1;  // pid 1 = "host" (wall time)
  int tid = 0;  // assigned per host thread; rank number on machine pids
};

/// The current thread's track.
TraceTrack trace_track();

/// Microseconds on the current thread's clock: wall time since
/// trace_start() by default, or whatever TraceTrackScope installed.
double trace_now_us();

/// Installs (pid, tid) and an optional clock for the current thread;
/// restores the previous track and clock on destruction.
class TraceTrackScope {
 public:
  TraceTrackScope(int pid, int tid, std::function<double()> now_us = {});
  ~TraceTrackScope();
  TraceTrackScope(const TraceTrackScope&) = delete;
  TraceTrackScope& operator=(const TraceTrackScope&) = delete;

 private:
  TraceTrack saved_track_;
  std::function<double()> saved_clock_;
};

/// Allocates a fresh pid (metadata event names the process group in the
/// viewer). The simulated machine calls this once per run.
int trace_register_process(const std::string& name);

/// Names a (pid, tid) track ("rank 3").
void trace_name_thread(int pid, int tid, const std::string& name);

// ---- recording --------------------------------------------------------

/// RAII span: records a complete ("X") event on the current thread's
/// track from construction to destruction. Args attach as the event's
/// "args" object; add them any time before destruction.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, const char* cat = "app");
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  TraceSpan& arg(std::string_view key, long long v);
  TraceSpan& arg(std::string_view key, int v) {
    return arg(key, static_cast<long long>(v));
  }
  TraceSpan& arg(std::string_view key, double v);
  TraceSpan& arg(std::string_view key, std::string_view v);

  /// Emits a flow-start ("s") event bound to this span at the current
  /// clock position; the matching trace_emit_flow(false, id, ...) draws
  /// the arrow.
  void flow_out(long long id);

 private:
  bool active_ = false;
  std::string name_;
  const char* cat_ = "";
  double t0_ = 0.0;
  JsonWriter args_;
  int nargs_ = 0;
};

/// Instant ("i") event on the current track. `args_json`, when non-empty,
/// must be a complete JSON object (use JsonWriter).
void trace_instant(std::string name, const char* cat,
                   std::string args_json = "");

/// Counter ("C") sample on the current track.
void trace_counter(std::string name, double value);

/// Fresh process-unique id for a send->recv flow pair.
long long trace_new_flow_id();

// Explicit-timestamp emitters for code that computes its own timeline
// (the simulated machine's virtual clocks). Timestamps are microseconds.
void trace_emit_complete(std::string name, const char* cat, double ts_us,
                         double dur_us, int pid, int tid,
                         std::string args_json = "");
void trace_emit_flow(bool start, long long id, double ts_us, int pid,
                     int tid);
void trace_emit_counter(std::string name, double value, double ts_us,
                        int pid, int tid);

// ---- export -----------------------------------------------------------

/// The whole trace as a Chrome trace-event JSON document:
///   {"traceEvents": [...], "displayTimeUnit": "ms",
///    "bernoulli": {"comm_matrix": ...,
///                  "metrics_registry": <bernoulli.metrics.v2>}}
/// Perfetto ignores the extra top-level keys; the derived reports ride
/// along in the same file.
std::string trace_json(int indent = 0);

/// Writes trace_json() to `path`.
void trace_write(const std::string& path, int indent = 0);

// ---- communication matrix ---------------------------------------------

/// Books one point-to-point message on the (src, dst) cell. Called by the
/// simulated machine for every non-self send while recording is enabled.
void comm_matrix_record(int src, int dst, long long bytes);

struct CommMatrixSnapshot {
  int nprocs = 0;  // 1 + max rank seen; 0 when nothing was recorded
  std::vector<long long> messages;  // nprocs*nprocs, row-major [src][dst]
  std::vector<long long> bytes;
  long long total_messages = 0;
  long long total_bytes = 0;

  long long messages_at(int src, int dst) const {
    return messages[static_cast<std::size_t>(src * nprocs + dst)];
  }
  long long bytes_at(int src, int dst) const {
    return bytes[static_cast<std::size_t>(src * nprocs + dst)];
  }
};

CommMatrixSnapshot comm_matrix_snapshot();

/// Text rendering: one bytes matrix, one messages matrix, row/col sums.
std::string comm_matrix_text();

/// JSON object {"nprocs": P, "messages": [[..]], "bytes": [[..]],
/// "total_messages": n, "total_bytes": n}.
std::string comm_matrix_json(int indent = 0);

}  // namespace bernoulli::support
