#include "runtime/machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "support/timer.hpp"

namespace bernoulli::runtime {

namespace {

// Tells the core this thread is in a spin-wait loop.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// The one wait of the machine: returns, holding `lk`, once `ready()` holds.
// `ready` is evaluated under the lock, and every change that can make it
// true bumps `version` under the same lock before notifying `cv`. With
// `spin`, the waiter first watches `version` without the lock for up to
// Machine::kSpinBudget, rechecking `ready` after each bump; when the
// budget runs out it blocks on `cv`, which rechecks `ready` under the lock
// first, so no wake-up is lost.
template <class Ready>
void wait_until(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
                const std::atomic<std::uint64_t>& version, bool spin,
                Ready ready) {
  if (spin) {
    const auto deadline =
        std::chrono::steady_clock::now() + Machine::kSpinBudget;
    while (!ready()) {
      const std::uint64_t seen = version.load(std::memory_order_relaxed);
      lk.unlock();
      bool bumped = false;
      while (!(bumped = version.load(std::memory_order_acquire) != seen) &&
             std::chrono::steady_clock::now() < deadline)
        cpu_relax();
      lk.lock();
      if (!bumped) break;
    }
  }
  cv.wait(lk, ready);
}

}  // namespace

Machine::Machine(int nprocs, CostModel cost) : nprocs_(nprocs), cost_(cost) {
  BERNOULLI_CHECK(nprocs >= 1);
  // hardware_concurrency() may report 0 (unknown): then assume one core.
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  oversubscribed_ = static_cast<unsigned>(nprocs) > hw;
  rendezvous_.values.assign(static_cast<std::size_t>(nprocs), 0.0);
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

std::vector<Machine::RankReport> Machine::run(
    const std::function<void(Process&)>& fn) {
  std::vector<RankReport> reports(static_cast<std::size_t>(nprocs_));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs_));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs_));

  // One trace process group per machine run; each rank is a track whose
  // clock is the rank's VIRTUAL time, so the exported timeline shows what
  // a dedicated-node MPI profiler would (not host-thread interleaving).
  const int trace_pid =
      support::trace_enabled()
          ? support::trace_register_process("machine P=" +
                                            std::to_string(nprocs_))
          : -1;

  for (int p = 0; p < nprocs_; ++p) {
    threads.emplace_back([&, p] {
      Process proc(*this, p, nprocs_);
      proc.trace_pid_ = trace_pid;
      proc.manual_compute_ = manual_compute_default_;
      proc.discard_cpu();
      {
        std::optional<support::TraceTrackScope> track;
        if (trace_pid >= 0) {
          track.emplace(trace_pid, p,
                        [&proc] { return proc.virtual_time() * 1e6; });
          support::trace_name_thread(trace_pid, p,
                                     "rank " + std::to_string(p));
        }
        try {
          fn(proc);
        } catch (...) {
          errors[static_cast<std::size_t>(p)] = std::current_exception();
        }
      }
      proc.advance_clock();
      reports[static_cast<std::size_t>(p)] = {proc.vclock_, proc.stats_};
    });
  }
  for (auto& t : threads) t.join();
  // Leftover messages (e.g. when a rank died) must not leak into the next
  // run; exceptions surface first.
  for (auto& e : errors)
    if (e) {
      for (auto& mb : mailboxes_) {
        std::lock_guard<std::mutex> lk(mb->mu);
        mb->queues.clear();
      }
      std::rethrow_exception(e);
    }
  for (const auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lk(mb->mu);
    BERNOULLI_CHECK_MSG(mb->queues.empty() ||
                            [&] {
                              for (const auto& [k, q] : mb->queues)
                                if (!q.empty()) return false;
                              return true;
                            }(),
                        "unconsumed messages left in a mailbox");
  }
  return reports;
}

void Process::discard_cpu() { cpu_mark_ = ThreadCpuTimer::now(); }

void Process::advance_clock() {
  double now = ThreadCpuTimer::now();
  if (!manual_compute_) {
    vclock_ += now - cpu_mark_;
    if (now > cpu_mark_)
      support::phase_counters().vtime_compute.add(now - cpu_mark_);
  }
  cpu_mark_ = now;
}

void Process::set_manual_compute(bool on) {
  advance_clock();
  manual_compute_ = on;
}

void Process::solo(const std::function<void()>& fn) {
  // Stop the CPU-time clock while waiting for the lock (mutex waits do not
  // consume CPU, but the mark must be refreshed so the wait interval is
  // not mis-attributed).
  advance_clock();
  std::unique_lock<std::mutex> lk(machine_.solo_mu_, std::defer_lock);
  if (machine_.oversubscribed_) lk.lock();
  discard_cpu();
  fn();
  advance_clock();
}

void Process::charge_seconds(double s) {
  BERNOULLI_CHECK(s >= 0.0);
  vclock_ += s;
  support::phase_counters().vtime_compute.add(s);
}

double Process::virtual_time() {
  advance_clock();
  return vclock_;
}

void Process::deliver(int dst, int tag, std::vector<std::byte> payload) {
  BERNOULLI_CHECK(dst >= 0 && dst < nprocs_);
  const double t_begin = vclock_;
  const auto bytes = static_cast<long long>(payload.size());
  double transfer = dst == rank_ ? 0.0 : machine_.cost_.charge(payload.size());
  vclock_ += dst == rank_ ? 0.0 : machine_.cost_.latency_s;  // send overhead
  Machine::Message msg{std::move(payload), vclock_ + transfer, -1};
  if (dst != rank_) {
    ++stats_.messages;
    stats_.bytes += bytes;
    // Phase-split mirror of CommStats: comm.<phase>.messages/bytes sum to
    // the CommStats totals across ranks (reconciled by bench reports).
    const support::PhaseCounters& phase = support::phase_counters();
    phase.messages.add();
    phase.bytes.add(bytes);
    phase.vtime_comm.add(machine_.cost_.latency_s);
    machine_.message_bytes_.add(bytes);
    // Single-booking invariant: the comm matrix and the send span are fed
    // from this one site, under the same dst != rank_ condition as
    // CommStats and the comm.* counters, so all four reconcile exactly.
    if (support::comm_record_enabled())
      support::comm_matrix_record(rank_, dst, bytes);
    if (trace_pid_ >= 0 && support::trace_enabled()) {
      msg.flow = support::trace_new_flow_id();
      support::JsonWriter args;
      args.begin_object();
      args.key("dst").value(dst);
      args.key("tag").value(tag);
      args.key("bytes").value(bytes);
      args.end_object();
      support::trace_emit_complete("send", "comm", t_begin * 1e6,
                                   (vclock_ - t_begin) * 1e6, trace_pid_,
                                   rank_, args.str());
      support::trace_emit_flow(/*start=*/true, msg.flow, vclock_ * 1e6,
                               trace_pid_, rank_);
      support::trace_emit_counter("tx bytes",
                                  static_cast<double>(stats_.bytes),
                                  vclock_ * 1e6, trace_pid_, rank_);
    }
  }
  auto& mb = *machine_.mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lk(mb.mu);
    mb.queues[{rank_, tag}].push_back(std::move(msg));
    mb.version.fetch_add(1, std::memory_order_release);
  }
  mb.cv.notify_all();
  // The CPU the mailbox machinery itself burned (copying, locking, waking
  // waiters) is simulation infrastructure, not simulated work: the modeled
  // latency/bandwidth charge above replaces it.
  discard_cpu();
}

std::vector<std::byte> Process::recv_bytes(int src, int tag) {
  BERNOULLI_CHECK(src >= 0 && src < nprocs_);
  advance_clock();  // book the compute that preceded the receive
  const double t_begin = vclock_;
  auto& mb = *machine_.mailboxes_[static_cast<std::size_t>(rank_)];
  Machine::Message msg;
  {
    std::unique_lock<std::mutex> lk(mb.mu);
    const auto key = std::make_pair(src, tag);
    auto it = mb.queues.end();
    wait_until(lk, mb.cv, mb.version, !machine_.oversubscribed_, [&] {
      it = mb.queues.find(key);
      return it != mb.queues.end() && !it->second.empty();
    });
    auto& q = it->second;
    msg = std::move(q.front());
    q.pop_front();
    if (q.empty()) mb.queues.erase(it);
  }
  // Happens-before: the receive completes no earlier than the message's
  // simulated arrival. The CPU burned inside the wait itself (spinning or
  // condition-variable wakeup churn) is simulation infrastructure and is
  // discarded; see deliver.
  if (msg.arrival > vclock_)
    support::phase_counters().vtime_comm.add(msg.arrival - vclock_);
  vclock_ = std::max(vclock_, msg.arrival);
  discard_cpu();
  if (trace_pid_ >= 0 && support::trace_enabled()) {
    // The recv span covers entry -> message arrival: its width is the
    // virtual time this rank spent waiting on the sender.
    support::JsonWriter args;
    args.begin_object();
    args.key("src").value(src);
    args.key("tag").value(tag);
    args.key("bytes").value(static_cast<long long>(msg.data.size()));
    args.end_object();
    support::trace_emit_complete("recv", "comm", t_begin * 1e6,
                                 (vclock_ - t_begin) * 1e6, trace_pid_,
                                 rank_, args.str());
    if (msg.flow >= 0)
      support::trace_emit_flow(/*start=*/false, msg.flow, vclock_ * 1e6,
                               trace_pid_, rank_);
  }
  return std::move(msg.data);
}

namespace {

// Tree-collective cost: ceil(log2 P) message rounds.
double collective_charge(const CostModel& cost, int nprocs,
                         std::size_t bytes) {
  int rounds = 0;
  for (int span = 1; span < nprocs; span *= 2) ++rounds;
  return static_cast<double>(rounds) * cost.charge(bytes);
}

}  // namespace

void Process::barrier() {
  reduce_rendezvous(0.0, "barrier");
}

// Shared rendezvous: reduces (sum, max, clock) across all ranks and
// publishes the completed round's results before waking waiters.
double Process::allreduce_sum(double x) {
  return reduce_rendezvous(x, "allreduce_sum").sum;
}

double Process::allreduce_max(double x) {
  return reduce_rendezvous(x, "allreduce_max").max;
}

Process::Reduced Process::reduce_rendezvous(double x, const char* span_name) {
  advance_clock();
  ++stats_.collectives;
  support::phase_counters().collectives.add();
  const double entered = vclock_;
  auto& r = machine_.rendezvous_;
  Reduced out{};
  {
    std::unique_lock<std::mutex> lk(r.mu);
    const std::uint64_t gen = r.generation.load(std::memory_order_relaxed);
    if (r.arrived == 0) r.max_clock = 0.0;
    r.values[static_cast<std::size_t>(rank_)] = x;
    r.max_clock = std::max(r.max_clock, vclock_);
    if (++r.arrived == nprocs_) {
      // Rank order, not arrival order: the reduction is bitwise the same
      // on every run.
      double sum = 0.0;
      double maxv = -std::numeric_limits<double>::infinity();
      for (double v : r.values) {
        sum += v;
        maxv = std::max(maxv, v);
      }
      r.result_sum = sum;
      r.result_max = maxv;
      r.result_clock = r.max_clock;
      r.arrived = 0;
      r.generation.fetch_add(1, std::memory_order_release);
      r.cv.notify_all();
    } else {
      wait_until(lk, r.cv, r.generation, !machine_.oversubscribed_, [&] {
        return r.generation.load(std::memory_order_relaxed) != gen;
      });
    }
    out.sum = r.result_sum;
    out.max = r.result_max;
    out.clock = r.result_clock;
  }
  vclock_ =
      out.clock + collective_charge(machine_.cost_, nprocs_, sizeof(double));
  if (vclock_ > entered)
    support::phase_counters().vtime_comm.add(vclock_ - entered);
  // The wait (spin included) burned no simulated compute.
  discard_cpu();
  if (trace_pid_ >= 0 && support::trace_enabled())
    // Span width = wait for the slowest rank + the modeled tree rounds.
    support::trace_emit_complete(span_name, "comm", entered * 1e6,
                                 (vclock_ - entered) * 1e6, trace_pid_,
                                 rank_);
  return out;
}

long long Process::allreduce_sum(long long x) {
  return static_cast<long long>(
      std::llround(allreduce_sum(static_cast<double>(x))));
}

}  // namespace bernoulli::runtime
