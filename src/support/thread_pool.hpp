// A small reusable worker pool for shared-memory parallel execution
// (the linked executor's outer-level worksharing, threaded bench
// kernels). Deliberately minimal: one job at a time, slot-indexed fork/
// join, no task queue — the executor brings its own chunk scheduler and
// only needs "run body(slot) on N threads and wait".
//
// Threads are lazily spawned and kept for the life of the process (same
// leak-on-purpose policy as the metrics registry), so steady-state
// parallel runs pay no thread creation. Each pool thread is an ordinary
// host thread to the tracing layer: it gets its own (pid 1, tid) track
// on first use, which is what tags per-worker TraceSpans.
#pragma once

#include <functional>
#include <memory>

namespace bernoulli::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is fine; grow later with ensure()).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const;

  /// Grows the pool to at least `threads` workers (never shrinks).
  void ensure(int threads);

  /// Invokes body(slot) once for every slot in [0, nslots) on the pool
  /// threads and the calling thread, and returns when all slots returned.
  /// Slots may outnumber threads (a thread then runs several slots back
  /// to back), and any slot may run on the caller. Jobs are
  /// serialized: concurrent run_slots calls queue on an internal mutex.
  /// Re-entrant calls from inside a slot body (on a pool thread or on the
  /// caller) are detected (thread-local flag) and degrade to running every
  /// slot inline on the caller — same fork/join contract, no nested
  /// parallelism, no deadlock.
  /// The first exception thrown by a body is rethrown here after the
  /// remaining slots finish.
  void run_slots(int nslots, const std::function<void(int)>& body);

  /// True when the calling thread is a pool worker (of ANY ThreadPool —
  /// the flag is per-thread, not per-pool) or a run_slots caller inside
  /// one of its slot bodies. This is the predicate
  /// run_slots uses for its inline-fallback path; exposed so servers can
  /// pick dispatch strategies without forking a doomed nested job.
  static bool on_pool_thread();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide shared pool, grown on demand to `min_threads`. All
/// executor and bench worksharing goes through this instance so repeated
/// runs (and nested benchmark reps) reuse one set of threads.
ThreadPool& shared_pool(int min_threads = 0);

}  // namespace bernoulli::support
