// Simulated distributed-memory machine (DESIGN.md §3, substitution 1).
//
// The paper ran on an IBM SP-2 under MPI. The development host has 4
// vCPUs — far fewer cores than the up-to-64 ranks the benches simulate — so
// instead of real distributed-memory hardware the runtime provides:
//   - P ranks executed as threads with private address spaces by
//     convention (ranks communicate only through messages);
//   - typed point-to-point send/recv with (source, tag) matching, plus
//     barrier / allreduce / alltoallv collectives;
//   - a per-rank VIRTUAL CLOCK: compute is charged with per-thread CPU
//     time (insensitive to OS interleaving), each message is charged
//     latency + bytes/bandwidth, and a receive cannot complete before the
//     sender's virtual send time plus transfer — i.e. proper
//     happens-before propagation of simulated time.
// "Time on P processors" reported by the benches is the maximum virtual
// time over ranks, which is what a dedicated-node MPI run measures.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "support/types.hpp"

namespace bernoulli::runtime {

/// Message cost model. The defaults are SP-2-class parameters rescaled so
/// that the modeled communication-to-computation balance of the benchmark
/// problems matches the paper's configuration (DESIGN.md §3): the paper's
/// machine paid ~40us latency / ~35 MB/s against ~50 MFLOPS nodes and a
/// 30^3-points-per-processor problem; one core of the 4-vCPU development
/// host runs the kernels ~40x faster on a ~3x smaller per-processor block,
/// so latency and bandwidth are scaled by the corresponding factors.
struct CostModel {
  double latency_s = 1e-6;        // per-message overhead
  double bytes_per_s = 2e9;       // link bandwidth

  double charge(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }
};

struct CommStats {
  long long messages = 0;   // point-to-point messages sent
  long long bytes = 0;      // payload bytes sent
  long long collectives = 0;

  CommStats& operator+=(const CommStats& o) {
    messages += o.messages;
    bytes += o.bytes;
    collectives += o.collectives;
    return *this;
  }
};

class Machine;

/// Per-rank handle passed to the SPMD function. NOT thread-safe across
/// ranks by design — each rank owns its Process.
class Process {
 public:
  int rank() const { return rank_; }
  int nprocs() const { return nprocs_; }

  /// Sends `payload` to `dst` with the given tag; the message takes the
  /// buffer over, so a caller that packs its values straight into it pays
  /// one copy. Self-sends are allowed (and free of transfer cost).
  void send_bytes(int dst, int tag, std::vector<std::byte> payload) {
    advance_clock();  // book the compute that preceded the send
    deliver(dst, tag, std::move(payload));
  }

  /// Sends a copy of `data` to `dst` with the given tag. The copy into the
  /// message is mailbox work, off the virtual clock like the rest of it.
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    advance_clock();
    const auto* bytes = reinterpret_cast<const std::byte*>(data.data());
    deliver(dst, tag, {bytes, bytes + data.size_bytes()});
  }

  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send<T>(dst, tag, std::span<const T>(&v, 1));
  }

  /// Blocks until a message with matching (src, tag) arrives and returns
  /// its payload. This is the one receive path: the typed receives below
  /// wrap it.
  std::vector<std::byte> recv_bytes(int src, int tag);

  /// Receives a message with matching (src, tag) straight into `out`,
  /// which it must fill exactly; a size mismatch throws an Error naming
  /// the source, the tag and both sizes. Like the copy into a message, the
  /// copy out of it is mailbox work, off the virtual clock.
  template <typename T>
  void recv_into(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(src, tag);
    BERNOULLI_CHECK_MSG(raw.size() == out.size_bytes(),
                        "message from rank " << src << " with tag " << tag
                                             << " holds " << raw.size()
                                             << " bytes; the receive expects "
                                             << out.size_bytes() << " bytes ("
                                             << out.size() << " values)");
    // memcpy's pointer arguments must be valid even for a zero-byte copy.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    discard_cpu();
  }

  /// Blocks until a message with matching (src, tag) arrives and returns a
  /// copy of its values (off the virtual clock, as in recv_into).
  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv_bytes(src, tag);
    BERNOULLI_CHECK_MSG(raw.size() % sizeof(T) == 0,
                        "message size " << raw.size()
                                        << " not a multiple of element size");
    std::vector<T> out(raw.size() / sizeof(T));
    // An empty message leaves out.data() null, and memcpy's pointer
    // arguments must be valid even for a zero-byte copy.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    discard_cpu();
    return out;
  }

  template <typename T>
  T recv_value(int src, int tag) {
    auto v = recv<T>(src, tag);
    BERNOULLI_CHECK(v.size() == 1);
    return v[0];
  }

  void barrier();

  double allreduce_sum(double x);
  double allreduce_max(double x);
  long long allreduce_sum(long long x);

  /// Personalized all-to-all: out[p] is sent to rank p; returns in[p] =
  /// what rank p sent here. out.size() must equal nprocs().
  template <typename T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& out,
                                        int tag) {
    BERNOULLI_CHECK(static_cast<int>(out.size()) == nprocs_);
    support::TraceSpan span("alltoallv", "comm");
    for (int p = 0; p < nprocs_; ++p)
      send<T>(p, tag, std::span<const T>(out[static_cast<std::size_t>(p)]));
    std::vector<std::vector<T>> in(static_cast<std::size_t>(nprocs_));
    for (int p = 0; p < nprocs_; ++p)
      in[static_cast<std::size_t>(p)] = recv<T>(p, tag);
    return in;
  }

  /// Gathers each rank's data on every rank (allgatherv).
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine, int tag) {
    std::vector<std::vector<T>> out(static_cast<std::size_t>(nprocs_),
                                    std::vector<T>(mine.begin(), mine.end()));
    return alltoallv(out, tag);
  }

  /// Advances the virtual clock past pending compute and returns it.
  double virtual_time();

  /// Adds explicitly modeled work (used rarely; normal compute is captured
  /// by the thread CPU timer automatically).
  void charge_seconds(double s);

  /// Manual-compute mode: the thread CPU timer stops feeding the virtual
  /// clock; only charge_seconds() and communication costs advance it. Used
  /// by calibrated benchmarks (kernel costs measured solo and charged
  /// deterministically — see bench/common.hpp) where in-situ CPU timing of
  /// many ranks time-sharing one host core is too noisy.
  void set_manual_compute(bool on);

  /// Runs a COMPUTE-ONLY section as a dedicated node would run it.
  ///
  /// When the machine has more ranks than the host has hardware threads
  /// (std::thread::hardware_concurrency()), ranks share host cores, so the
  /// section runs under a machine-wide lock: rank threads do not interleave
  /// (and cache-thrash) inside it, and per-thread CPU time reflects the
  /// work a dedicated node would do. When every rank has a hardware thread
  /// of its own, there is nothing to protect it from, and `fn` runs at once,
  /// side by side with the other ranks' solo sections.
  ///
  /// Either way the virtual clock books only `fn`'s own CPU time: time
  /// spent waiting for the lock is off the clock (blocked threads burn no
  /// CPU, and the CPU mark is refreshed after the wait). `fn` MUST NOT
  /// communicate: send/recv/collectives inside a serialized solo section
  /// deadlock.
  void solo(const std::function<void()>& fn);

  const CommStats& stats() const { return stats_; }

 private:
  friend class Machine;
  Process(Machine& machine, int rank, int nprocs)
      : machine_(machine), rank_(rank), nprocs_(nprocs) {}

  void advance_clock();  // fold accrued CPU time into the virtual clock
  // Restarts the CPU clock without booking: what ran since the last mark
  // (a wait, mailbox copies) was simulation infrastructure, not simulated
  // work.
  void discard_cpu();
  // The one send path: models the message and queues `payload` in dst's
  // mailbox. The CPU it burns is discarded (the caller has advanced the
  // clock), so the modeled charges alone stand for it.
  void deliver(int dst, int tag, std::vector<std::byte> payload);

  struct Reduced {
    double sum = 0.0;
    double max = 0.0;
    double clock = 0.0;
  };
  Reduced reduce_rendezvous(double x, const char* span_name);

  Machine& machine_;
  int rank_;
  int nprocs_;
  double vclock_ = 0.0;
  double cpu_mark_ = 0.0;  // thread CPU time at last advance
  bool manual_compute_ = false;
  // Trace process group for this machine run (-1 = tracing off). Rank
  // timelines are laid out on VIRTUAL time: every send/recv/collective
  // span is emitted with explicit virtual-clock timestamps, and matching
  // send->recv pairs share a flow id so the viewer draws message arrows.
  int trace_pid_ = -1;
  CommStats stats_;
};

class Machine {
 public:
  explicit Machine(int nprocs, CostModel cost = {});

  struct RankReport {
    double virtual_time = 0.0;
    CommStats stats;
  };

  /// Runs `fn` as an SPMD program on all ranks (one thread per rank);
  /// returns per-rank virtual time and communication statistics.
  /// Exceptions thrown by any rank are rethrown after all threads join.
  std::vector<RankReport> run(const std::function<void(Process&)>& fn);

  /// When on, every spawned Process STARTS in manual-compute mode, so the
  /// virtual timeline holds exactly the charges the program issues —
  /// nothing accrues between thread spawn and the body's first statement.
  /// (Calling Process::set_manual_compute(true) inside the body instead
  /// books that setup CPU time first.) Tests that assert span timestamps
  /// bit-for-bit depend on this.
  void set_manual_compute(bool on) { manual_compute_default_ = on; }

  int nprocs() const { return nprocs_; }
  const CostModel& cost() const { return cost_; }

  /// True when ranks outnumber the host's hardware threads
  /// (std::thread::hardware_concurrency()). Then solo sections serialize
  /// and every wait (receive, barrier, allreduce) blocks at once; otherwise
  /// a wait spins for up to kSpinBudget before it blocks, which saves a
  /// thread wake-up whenever the partner arrives within the budget. The CPU
  /// a spin burns is off the virtual clock, like any wait.
  bool oversubscribed() const { return oversubscribed_; }

  /// How long a wait spins before it blocks, when ranks fit the host.
  static constexpr std::chrono::microseconds kSpinBudget{200};

 private:
  friend class Process;

  struct Message {
    std::vector<std::byte> data;
    double arrival = 0.0;  // sender virtual time + transfer charge
    long long flow = -1;   // trace flow id linking send span -> recv span
  };
  // `version` is bumped under `mu` by every push, so a receiver can spin
  // on it without the lock (see wait_until in machine.cpp).
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::uint64_t> version{0};
    std::map<std::pair<int, int>, std::deque<Message>> queues;  // (src,tag)
  };

  // Barrier/allreduce rendezvous state. Each arriver stores its value in
  // values[rank]; the last arriver reduces them in rank order (so sums are
  // bitwise reproducible whatever the arrival order) and *publishes* the
  // round's results before bumping `generation` and waking waiters, so a
  // rank racing into the next round cannot clobber what slower ranks read.
  struct Rendezvous {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::uint64_t> generation{0};
    int arrived = 0;
    std::vector<double> values;
    double max_clock = 0.0;
    double result_sum = 0.0;
    double result_max = 0.0;
    double result_clock = 0.0;
  };

  int nprocs_;
  CostModel cost_;
  bool manual_compute_default_ = false;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  Rendezvous rendezvous_;
  // Ranks outnumber hardware threads: Process::solo serializes, and waits
  // block at once instead of spinning first (a spinning rank would take a
  // core from the rank it waits for).
  bool oversubscribed_ = false;
  std::mutex solo_mu_;
  // comm.message_bytes: payload size of every modeled point-to-point
  // message (resolved at construction, booked per send).
  support::Log2Histogram& message_bytes_ =
      support::histogram("comm.message_bytes");
};

}  // namespace bernoulli::runtime
