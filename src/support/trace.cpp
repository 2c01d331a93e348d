#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "support/error.hpp"
#include "support/metrics.hpp"

namespace bernoulli::support {

namespace {

struct TraceEvent {
  std::string name;
  const char* cat = "";
  char ph = 'X';        // X / i / C / s / f / M
  double ts = 0.0;      // microseconds
  double dur = 0.0;     // X only
  int pid = 1;
  int tid = 0;
  long long id = -1;    // flow id; -1 = none
  std::string args;     // pre-rendered JSON object; empty = none
};

// Leaked on purpose (same policy as the metrics registry): thread-local
// pointers into the registry stay valid for the whole process lifetime
// even if threads outlive static destruction order.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_comm_enabled{false};
std::atomic<long long> g_flow_id{1};
std::atomic<int> g_next_pid{100};  // 1 is the host; machines start at 100
std::atomic<int> g_next_host_tid{1};
std::atomic<long long> g_wall_t0_ns{0};

struct Tls {
  ThreadBuffer* buf = nullptr;
  TraceTrack track{1, 0};
  bool tid_assigned = false;
  std::function<double()> clock;  // empty = wall clock
};

thread_local Tls t_tls;

long long steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadBuffer& my_buffer() {
  if (t_tls.buf == nullptr) {
    t_tls.buf = new ThreadBuffer();
    auto& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.buffers.push_back(t_tls.buf);
  }
  return *t_tls.buf;
}

TraceTrack my_track() {
  if (!t_tls.tid_assigned) {
    t_tls.track.pid = 1;
    t_tls.track.tid = g_next_host_tid.fetch_add(1);
    t_tls.tid_assigned = true;
  }
  return t_tls.track;
}

void record(TraceEvent ev) {
  ThreadBuffer& b = my_buffer();
  std::lock_guard<std::mutex> lk(b.mu);
  b.events.push_back(std::move(ev));
}

// ---- comm matrix state -------------------------------------------------

struct CommCell {
  long long messages = 0;
  long long bytes = 0;
};

struct CommState {
  std::mutex mu;
  std::map<std::pair<int, int>, CommCell> cells;
};

CommState& comm_state() {
  static CommState* s = new CommState();
  return *s;
}

}  // namespace

bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void trace_start() {
  auto& r = registry();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    for (ThreadBuffer* b : r.buffers) {
      std::lock_guard<std::mutex> blk(b->mu);
      b->events.clear();
    }
  }
  comm_record_start();
  g_wall_t0_ns.store(steady_now_ns());
  g_enabled.store(true, std::memory_order_relaxed);
}

void trace_stop() { g_enabled.store(false, std::memory_order_relaxed); }

bool comm_record_enabled() {
  return g_comm_enabled.load(std::memory_order_relaxed);
}

void comm_record_start() {
  auto& s = comm_state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.cells.clear();
  }
  g_comm_enabled.store(true, std::memory_order_relaxed);
}

void comm_record_stop() {
  g_comm_enabled.store(false, std::memory_order_relaxed);
}

TraceTrack trace_track() { return my_track(); }

double trace_now_us() {
  if (t_tls.clock) return t_tls.clock();
  return static_cast<double>(steady_now_ns() - g_wall_t0_ns.load()) * 1e-3;
}

TraceTrackScope::TraceTrackScope(int pid, int tid,
                                 std::function<double()> now_us)
    : saved_track_(my_track()), saved_clock_(std::move(t_tls.clock)) {
  t_tls.track = {pid, tid};
  t_tls.tid_assigned = true;
  t_tls.clock = std::move(now_us);
}

TraceTrackScope::~TraceTrackScope() {
  t_tls.track = saved_track_;
  t_tls.clock = std::move(saved_clock_);
}

int trace_register_process(const std::string& name) {
  int pid = g_next_pid.fetch_add(1);
  if (trace_enabled()) {
    JsonWriter args;
    args.begin_object().key("name").value(name).end_object();
    TraceEvent ev;
    ev.name = "process_name";
    ev.cat = "__metadata";
    ev.ph = 'M';
    ev.pid = pid;
    ev.tid = 0;
    ev.args = args.str();
    record(std::move(ev));
  }
  return pid;
}

void trace_name_thread(int pid, int tid, const std::string& name) {
  if (!trace_enabled()) return;
  JsonWriter args;
  args.begin_object().key("name").value(name).end_object();
  TraceEvent ev;
  ev.name = "thread_name";
  ev.cat = "__metadata";
  ev.ph = 'M';
  ev.pid = pid;
  ev.tid = tid;
  ev.args = args.str();
  record(std::move(ev));
}

TraceSpan::TraceSpan(std::string name, const char* cat)
    : active_(trace_enabled()), name_(std::move(name)), cat_(cat) {
  if (active_) t0_ = trace_now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  double t1 = trace_now_us();
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.cat = cat_;
  ev.ph = 'X';
  ev.ts = t0_;
  ev.dur = std::max(0.0, t1 - t0_);
  TraceTrack tr = my_track();
  ev.pid = tr.pid;
  ev.tid = tr.tid;
  if (nargs_ > 0) {
    args_.end_object();
    ev.args = args_.str();
  }
  record(std::move(ev));
}

TraceSpan& TraceSpan::arg(std::string_view key, long long v) {
  if (!active_) return *this;
  if (nargs_++ == 0) args_.begin_object();
  args_.key(key).value(v);
  return *this;
}

TraceSpan& TraceSpan::arg(std::string_view key, double v) {
  if (!active_) return *this;
  if (nargs_++ == 0) args_.begin_object();
  args_.key(key).value(v);
  return *this;
}

TraceSpan& TraceSpan::arg(std::string_view key, std::string_view v) {
  if (!active_) return *this;
  if (nargs_++ == 0) args_.begin_object();
  args_.key(key).value(v);
  return *this;
}

void TraceSpan::flow_out(long long id) {
  if (!active_) return;
  TraceTrack tr = my_track();
  trace_emit_flow(/*start=*/true, id, trace_now_us(), tr.pid, tr.tid);
}

void trace_instant(std::string name, const char* cat,
                   std::string args_json) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.ph = 'i';
  ev.ts = trace_now_us();
  TraceTrack tr = my_track();
  ev.pid = tr.pid;
  ev.tid = tr.tid;
  ev.args = std::move(args_json);
  record(std::move(ev));
}

void trace_counter(std::string name, double value) {
  if (!trace_enabled()) return;
  TraceTrack tr = my_track();
  trace_emit_counter(std::move(name), value, trace_now_us(), tr.pid, tr.tid);
}

long long trace_new_flow_id() { return g_flow_id.fetch_add(1); }

void trace_emit_complete(std::string name, const char* cat, double ts_us,
                         double dur_us, int pid, int tid,
                         std::string args_json) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.ph = 'X';
  ev.ts = ts_us;
  ev.dur = std::max(0.0, dur_us);
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args_json);
  record(std::move(ev));
}

void trace_emit_flow(bool start, long long id, double ts_us, int pid,
                     int tid) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = "msg";
  ev.cat = "comm";
  ev.ph = start ? 's' : 'f';
  ev.ts = ts_us;
  ev.pid = pid;
  ev.tid = tid;
  ev.id = id;
  record(std::move(ev));
}

void trace_emit_counter(std::string name, double value, double ts_us,
                        int pid, int tid) {
  if (!trace_enabled()) return;
  JsonWriter args;
  args.begin_object().key("value").value(value).end_object();
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = "counter";
  ev.ph = 'C';
  ev.ts = ts_us;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = args.str();
  record(std::move(ev));
}

std::string trace_json(int indent) {
  // Snapshot every buffer, then order: metadata first, then by timestamp
  // (Perfetto tolerates unsorted input, but sorted output is stable and
  // diff-friendly).
  std::vector<TraceEvent> all;
  {
    auto& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (ThreadBuffer* b : r.buffers) {
      std::lock_guard<std::mutex> blk(b->mu);
      all.insert(all.end(), b->events.begin(), b->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if ((a.ph == 'M') != (b.ph == 'M')) return a.ph == 'M';
                     return a.ts < b.ts;
                   });

  JsonWriter w(indent);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const TraceEvent& ev : all) {
    w.begin_object();
    w.key("name").value(ev.name);
    w.key("cat").value(ev.cat);
    w.key("ph").value(std::string_view(&ev.ph, 1));
    w.key("ts").value(ev.ts);
    if (ev.ph == 'X') w.key("dur").value(ev.dur);
    w.key("pid").value(ev.pid);
    w.key("tid").value(ev.tid);
    if (ev.id >= 0) w.key("id").value(ev.id);
    // Flow ends bind to the enclosing slice at their timestamp.
    if (ev.ph == 'f') w.key("bp").value("e");
    if (!ev.args.empty()) w.key("args").raw(ev.args);
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.key("bernoulli").begin_object();
  w.key("schema").value("bernoulli.trace.v1");
  w.key("comm_matrix").raw(comm_matrix_json());
  w.key("metrics_registry").raw(metrics_json());
  w.end_object();
  w.end_object();
  return w.str();
}

void trace_write(const std::string& path, int indent) {
  std::ofstream out(path);
  BERNOULLI_CHECK_MSG(out.good(), "cannot open trace file " << path);
  out << trace_json(indent) << "\n";
  BERNOULLI_CHECK_MSG(out.good(), "failed writing trace file " << path);
}

void comm_matrix_record(int src, int dst, long long bytes) {
  auto& s = comm_state();
  std::lock_guard<std::mutex> lk(s.mu);
  CommCell& c = s.cells[{src, dst}];
  ++c.messages;
  c.bytes += bytes;
}

CommMatrixSnapshot comm_matrix_snapshot() {
  CommMatrixSnapshot snap;
  auto& s = comm_state();
  std::lock_guard<std::mutex> lk(s.mu);
  for (const auto& [key, cell] : s.cells)
    snap.nprocs = std::max(snap.nprocs,
                           std::max(key.first, key.second) + 1);
  snap.messages.assign(
      static_cast<std::size_t>(snap.nprocs) * snap.nprocs, 0);
  snap.bytes.assign(static_cast<std::size_t>(snap.nprocs) * snap.nprocs, 0);
  for (const auto& [key, cell] : s.cells) {
    auto idx = static_cast<std::size_t>(key.first * snap.nprocs + key.second);
    snap.messages[idx] = cell.messages;
    snap.bytes[idx] = cell.bytes;
    snap.total_messages += cell.messages;
    snap.total_bytes += cell.bytes;
  }
  return snap;
}

std::string comm_matrix_text() {
  CommMatrixSnapshot snap = comm_matrix_snapshot();
  std::ostringstream os;
  if (snap.nprocs == 0) {
    os << "communication matrix: no point-to-point messages recorded\n";
    return os.str();
  }
  const int P = snap.nprocs;
  auto matrix = [&](const char* title,
                    const std::vector<long long>& cells) {
    // Column width: widest cell or sum.
    std::size_t width = 7;
    for (long long v : cells)
      width = std::max(width, std::to_string(v).size());
    std::vector<long long> colsum(static_cast<std::size_t>(P), 0);
    os << title << " (rows = src, cols = dst):\n";
    os << "  src\\dst";
    for (int q = 0; q < P; ++q) {
      std::string h = std::to_string(q);
      os << "  " << std::string(width - h.size(), ' ') << h;
    }
    os << "      sum\n";
    for (int r = 0; r < P; ++r) {
      std::string h = std::to_string(r);
      os << "  " << std::string(7 - std::min<std::size_t>(7, h.size()), ' ')
         << h;
      long long rowsum = 0;
      for (int q = 0; q < P; ++q) {
        long long v = cells[static_cast<std::size_t>(r * P + q)];
        rowsum += v;
        colsum[static_cast<std::size_t>(q)] += v;
        std::string cell = std::to_string(v);
        os << "  " << std::string(width - cell.size(), ' ') << cell;
      }
      std::string s = std::to_string(rowsum);
      os << "  " << std::string(7 - std::min<std::size_t>(7, s.size()), ' ')
         << s << "\n";
    }
    os << "      sum";
    long long total = 0;
    for (int q = 0; q < P; ++q) {
      total += colsum[static_cast<std::size_t>(q)];
      std::string s = std::to_string(colsum[static_cast<std::size_t>(q)]);
      os << "  " << std::string(width - s.size(), ' ') << s;
    }
    std::string s = std::to_string(total);
    os << "  " << std::string(7 - std::min<std::size_t>(7, s.size()), ' ')
       << s << "\n";
  };
  matrix("messages", snap.messages);
  os << "\n";
  matrix("bytes", snap.bytes);
  os << "\ntotal: " << snap.total_messages << " messages, "
     << snap.total_bytes << " bytes\n";
  return os.str();
}

std::string comm_matrix_json(int indent) {
  CommMatrixSnapshot snap = comm_matrix_snapshot();
  JsonWriter w(indent);
  w.begin_object();
  w.key("nprocs").value(snap.nprocs);
  auto rows = [&](const std::vector<long long>& cells) {
    w.begin_array();
    for (int r = 0; r < snap.nprocs; ++r) {
      w.begin_array();
      for (int q = 0; q < snap.nprocs; ++q)
        w.value(cells[static_cast<std::size_t>(r * snap.nprocs + q)]);
      w.end_array();
    }
    w.end_array();
  };
  w.key("messages");
  rows(snap.messages);
  w.key("bytes");
  rows(snap.bytes);
  w.key("total_messages").value(snap.total_messages);
  w.key("total_bytes").value(snap.total_bytes);
  w.end_object();
  return w.str();
}

}  // namespace bernoulli::support
