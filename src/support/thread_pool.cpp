#include "support/thread_pool.hpp"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace bernoulli::support {

namespace {
// Backstop against runaway ensure() arguments; far above any sensible
// worker count for this executor.
constexpr int kMaxThreads = 256;

// Set for the lifetime of every pool worker thread. run_slots consults it
// to detect re-entrant invocation: a pool thread that forked a nested job
// would block on job_mu while the job holding job_mu waits for that very
// thread — a deadlock. The flag is per-thread, so it costs one TLS read
// on the fast path and nothing else.
thread_local bool tl_in_pool_worker = false;
}  // namespace

struct ThreadPool::Impl {
  std::mutex job_mu;  // serializes run_slots callers

  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::vector<std::thread> threads;
  bool stop = false;

  // Current job (valid while body != nullptr). Workers pull slot indices
  // from `next`; the caller waits until `done` reaches `nslots`. All job
  // state — including slot hand-out — is guarded by `mu`: a worker that
  // woke late for job G must observe that `generation` moved on and NOT
  // pull a slot, or it would invoke job G's already-destroyed body with
  // job G+1's slot (and corrupt G+1's `done` count). Slot acquisition is
  // once per worker chunk, so the lock is cold.
  const std::function<void(int)>* body = nullptr;
  std::uint64_t generation = 0;
  int nslots = 0;
  int next = 0;
  int done = 0;
  std::exception_ptr error;

  // Pulls and runs slots of job `gen` until none is left. Workers and the
  // run_slots caller both pull, so a worker that wakes late finds its
  // share already taken instead of stretching the job.
  void pull_slots(std::uint64_t gen, const std::function<void(int)>& job) {
    for (;;) {
      int slot;
      {
        std::lock_guard<std::mutex> lk(mu);
        // The job may have completed (and a new one started) between
        // our last slot and this re-check; only touch state that is
        // still ours.
        if (generation != gen || body == nullptr || next >= nslots) break;
        slot = next++;
      }
      std::exception_ptr err;
      try {
        job(slot);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu);
      if (generation != gen) break;  // paranoia; cannot complete a
                                     // stale job past this point
      if (err && !error) error = err;
      if (++done == nslots) cv_done.notify_all();
    }
  }

  void worker() {
    tl_in_pool_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] {
          return stop || (body != nullptr && generation != seen);
        });
        if (stop) return;
        seen = generation;
        job = body;
      }
      pull_slots(seen, *job);
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  ensure(threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->threads) t.join();
}

int ThreadPool::size() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return static_cast<int>(impl_->threads.size());
}

void ThreadPool::ensure(int threads) {
  BERNOULLI_CHECK_MSG(threads <= kMaxThreads,
                      "thread pool size " << threads << " exceeds the "
                                          << kMaxThreads << " backstop");
  std::lock_guard<std::mutex> lk(impl_->mu);
  while (static_cast<int>(impl_->threads.size()) < threads)
    impl_->threads.emplace_back([impl = impl_.get()] { impl->worker(); });
}

bool ThreadPool::on_pool_thread() { return tl_in_pool_worker; }

void ThreadPool::run_slots(int nslots, const std::function<void(int)>& body) {
  if (nslots <= 0) return;
  if (tl_in_pool_worker) {
    // Re-entrant fork from a pool worker: the outer job holds job_mu and
    // is waiting for THIS thread, so queuing a nested job can never make
    // progress. Degrade to running every slot inline on the caller — the
    // fork/join contract (all slots run, first exception rethrown after
    // the rest finish) is preserved, just without extra parallelism.
    std::exception_ptr error;
    for (int slot = 0; slot < nslots; ++slot) {
      try {
        body(slot);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  std::lock_guard<std::mutex> job_lk(impl_->job_mu);
  std::uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->body = &body;
    impl_->nslots = nslots;
    impl_->next = 0;
    impl_->done = 0;
    impl_->error = nullptr;
    gen = ++impl_->generation;
  }
  impl_->cv_work.notify_all();
  // The caller pulls slots too rather than sleeping until the workers are
  // done (so a pool with no workers still completes). With as many
  // workers as cores, a sleeping caller left one worker routinely
  // starting only after the others had finished — measured per slot on
  // a 4-vCPU host — so a job of one slot per worker ran two slots back
  // to back on one thread. The caller's slot bodies run as if on a pool
  // thread, so a nested run_slots degrades inline as above.
  tl_in_pool_worker = true;
  impl_->pull_slots(gen, body);
  tl_in_pool_worker = false;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->cv_done.wait(lk, [&] { return impl_->done == impl_->nslots; });
    impl_->body = nullptr;
    error = impl_->error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& shared_pool(int min_threads) {
  // Leaked on purpose: worker threads may still be parked in cv_work when
  // static destructors run; joining them at exit is not worth the races.
  static ThreadPool* pool = new ThreadPool(0);
  pool->ensure(min_threads);
  return *pool;
}

}  // namespace bernoulli::support
