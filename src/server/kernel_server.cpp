#include "server/kernel_server.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace bernoulli::server {

namespace {

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The canonical SpMV loop nest every registered CSR matrix compiles:
//   DO i = 1, rows; DO j = 1, cols; Y(i) += A(i,j) * X(j)
// Relation order after compile(): 0 = interval I, 1 = target y,
// 2 = A, 3 = x (statement order) — the slots link_mac below relies on.
compiler::LoopNest spmv_nest(index_t rows, index_t cols) {
  compiler::LoopNest nest;
  nest.loops = {{"i", rows}, {"j", cols}};
  nest.body.target = {"y", {"i"}};
  nest.body.factors = {{"A", {"i", "j"}}, {"x", {"j"}}};
  return nest;
}

}  // namespace

/// One request parked on an entry's batch queue. Owned by the requesting
/// thread's stack frame; the leader only touches it between enqueue and
/// the done handshake under batch_mu.
struct KernelServer::Pending {
  ConstVectorView x;
  VectorView y;
  bool done = false;
  std::exception_ptr error;
};

/// Everything one cached plan owns. Heap-allocated and address-stable:
/// the kernel's linked program, the LinkedPlan and the mac all borrow
/// storage inside this struct, so it is built in dependency order
/// (buffers -> bindings -> kernel -> linked artifacts) and never moves
/// afterwards. In-flight requests hold the shared_ptr, which is what makes
/// LRU eviction safe mid-request.
struct KernelServer::CacheEntry {
  std::string key;
  const formats::Csr* matrix = nullptr;

  // Placeholder vectors the compiled views bind; only the warmup run
  // writes them. Each request rebinds the mac's x/y spans to its own
  // buffers.
  Vector proto_x;
  Vector proto_y;
  compiler::Bindings bindings;
  compiler::CompiledKernel kernel;

  compiler::LinkedPlan lp;
  compiler::LinkedMac mac0;        // template mac; requests copy + rebind
  std::size_t x_factor = 0;        // mac0.factors index bound to "x"

  // The warmup run's record, committed k-fold when a batched sweep stands
  // in for k engine runs (SpMV enumeration is structure-only, so the
  // record is x-independent). Only the entry's batch leader touches it.
  support::RunRecord record;

  // Runner freelist: each concurrent unbatched request leases a runner
  // (scratch reuse in steady state), growing on demand under pool_mu.
  std::mutex pool_mu;
  std::vector<std::unique_ptr<compiler::LinkedRunner>> free_runners;

  // Leader/follower batcher state (see serve_batched).
  std::mutex batch_mu;
  std::condition_variable batch_cv;
  std::deque<Pending*> queue;
  bool leader_active = false;
};

KernelServer::KernelServer(ServerOptions opts)
    : opts_(opts),
      requests_counter_(support::counter("server.requests")),
      hits_counter_(support::counter("server.cache.hits")),
      misses_counter_(support::counter("server.cache.misses")),
      evictions_counter_(support::counter("server.cache.evictions")),
      batches_counter_(support::counter("server.batches")),
      batched_counter_(support::counter("server.batched_requests")),
      request_latency_(support::metric_latency("server.request.latency")) {
  BERNOULLI_CHECK_MSG(opts_.plan_cache_capacity >= 1,
                      "plan cache capacity must be >= 1");
  BERNOULLI_CHECK_MSG(opts_.max_batch >= 1, "max_batch must be >= 1");
  if (opts_.sweep_threads > 1) support::shared_pool(opts_.sweep_threads);
}

KernelServer::~KernelServer() = default;

int KernelServer::add_csr(const std::string& name, const formats::Csr& m,
                          const std::string& distribution) {
  // Cache key = storage identity + shape + distribution. Every entry
  // compiles the same SpMV nest over CSR, so these fix the plan: two
  // handles over the SAME arrays share a plan; a rebuilt (moved) matrix
  // does not, because its linked cursors would dangle.
  std::ostringstream key;
  key << static_cast<const void*>(m.rowptr().data()) << ':'
      << static_cast<const void*>(m.colind().data()) << ':'
      << static_cast<const void*>(m.vals().data()) << '/' << m.rows() << 'x'
      << m.cols() << ':' << m.nnz() << '/' << distribution;

  const std::lock_guard<std::mutex> lk(cache_mu_);
  matrices_.push_back({name, &m, distribution, key.str()});
  return static_cast<int>(matrices_.size()) - 1;
}

const std::string& KernelServer::key_of(int handle) const {
  const std::lock_guard<std::mutex> lk(cache_mu_);
  BERNOULLI_CHECK_MSG(
      handle >= 0 && static_cast<std::size_t>(handle) < matrices_.size(),
      "unknown server handle " << handle);
  return matrices_[static_cast<std::size_t>(handle)].key;
}

ServerStats KernelServer::stats() const {
  const std::lock_guard<std::mutex> lk(cache_mu_);
  return stats_;
}

std::size_t KernelServer::cache_size() const {
  const std::lock_guard<std::mutex> lk(cache_mu_);
  return cache_.size();
}

std::shared_ptr<KernelServer::CacheEntry> KernelServer::build_entry(
    const MatrixRec& rec) {
  auto e = std::make_shared<CacheEntry>();
  e->key = rec.key;
  e->matrix = rec.matrix;
  const formats::Csr& m = *rec.matrix;
  e->proto_x.assign(static_cast<std::size_t>(m.cols()), 0.0);
  e->proto_y.assign(static_cast<std::size_t>(m.rows()), 0.0);
  e->bindings.bind_csr("A", m);
  e->bindings.bind_dense_vector("x", ConstVectorView(e->proto_x));
  e->bindings.bind_dense_vector("y", VectorView(e->proto_y));
  // Move-assign into the entry BEFORE linking: the linked plan borrows
  // the kernel's plan/query storage at its final address.
  e->kernel = compiler::compile(spmv_nest(m.rows(), m.cols()), e->bindings);
  e->lp = compiler::link_plan(e->kernel.plan(), e->kernel.query());
  e->mac0 = compiler::link_mac(e->kernel.query(), /*target_rel=*/1,
                               /*factor_rels=*/{2, 3}, /*scale=*/1.0);
  e->x_factor = e->mac0.factors.size();
  for (std::size_t f = 0; f < e->mac0.factors.size(); ++f)
    if (e->mac0.factors[f].view->name() == "x") e->x_factor = f;
  BERNOULLI_CHECK_MSG(e->x_factor < e->mac0.factors.size(),
                      "no dense-vector factor named x in the SpMV mac");

  // Warmup run: pays the engine's first-run scratch allocation off the
  // request path AND leaves the run record the batched path commits
  // k-fold (without its profile: a sweep is not profiled). It books
  // observability normally — one extra engine run per cache miss, which
  // the counter-reconciliation tests account for.
  auto runner = std::make_unique<compiler::LinkedRunner>(e->lp);
  runner->run(e->mac0);
  e->record = runner->record();
  e->record.profile = support::ProfileScratch{};
  e->free_runners.push_back(std::move(runner));
  return e;
}

std::shared_ptr<KernelServer::CacheEntry> KernelServer::get_entry(
    int handle, std::size_t x_size, std::size_t y_size) {
  MatrixRec rec;
  {
    // One critical section per cache hit: the handle and shape checks,
    // the request count and the lookup. A rejected request never reaches
    // the cache, so it books no miss and builds nothing.
    const std::lock_guard<std::mutex> lk(cache_mu_);
    BERNOULLI_CHECK_MSG(
        handle >= 0 && static_cast<std::size_t>(handle) < matrices_.size(),
        "unknown server handle " << handle);
    rec = matrices_[static_cast<std::size_t>(handle)];
    const std::size_t rows = static_cast<std::size_t>(rec.matrix->rows());
    const std::size_t cols = static_cast<std::size_t>(rec.matrix->cols());
    BERNOULLI_CHECK_MSG(x_size == cols && y_size == rows,
                        "spmv request shape mismatch: x "
                            << x_size << " y " << y_size << " vs matrix "
                            << rows << "x" << cols);
    ++stats_.requests;
    requests_counter_.add(1);
    auto it = cache_.find(rec.key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      hits_counter_.add(1);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.entry;
    }
    ++stats_.cache_misses;
    misses_counter_.add(1);
  }

  // Build outside the lock (compile + link + warmup is the expensive
  // part); two threads missing the same key may both build, the second
  // one's work is dropped in favor of the published entry.
  std::shared_ptr<CacheEntry> built = build_entry(rec);

  const std::lock_guard<std::mutex> lk(cache_mu_);
  auto it = cache_.find(rec.key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.entry;
  }
  lru_.push_front(rec.key);
  cache_[rec.key] = {built, lru_.begin()};
  while (cache_.size() > opts_.plan_cache_capacity) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
    ++stats_.cache_evictions;
    evictions_counter_.add(1);
  }
  return built;
}

void KernelServer::spmv(const std::string& name, ConstVectorView x,
                        VectorView y) {
  int handle = -1;
  {
    const std::lock_guard<std::mutex> lk(cache_mu_);
    for (std::size_t i = 0; i < matrices_.size(); ++i)
      if (matrices_[i].name == name) handle = static_cast<int>(i);
  }
  BERNOULLI_CHECK_MSG(handle >= 0, "no matrix registered as " << name);
  spmv(handle, x, y);
}

void KernelServer::spmv(int handle, ConstVectorView x, VectorView y) {
  const long long t0 = now_ns();
  std::shared_ptr<CacheEntry> e = get_entry(handle, x.size(), y.size());
  if (opts_.batching)
    serve_batched(e, x, y);
  else
    run_single(*e, x, y);
  request_latency_.record_ns(now_ns() - t0);
}

void KernelServer::run_single(CacheEntry& e, ConstVectorView x, VectorView y) {
  // Lease a pooled runner and rebind the mac's value spans to the request
  // buffers. run(LinkedMac) re-resolves operand slots and re-asks
  // leaf_form() every run (a request whose x aliases y takes the
  // per-element leaf), so per-request rebinding is safe.
  std::unique_ptr<compiler::LinkedRunner> runner;
  {
    const std::lock_guard<std::mutex> lk(e.pool_mu);
    if (!e.free_runners.empty()) {
      runner = std::move(e.free_runners.back());
      e.free_runners.pop_back();
    }
  }
  if (!runner) runner = std::make_unique<compiler::LinkedRunner>(e.lp);
  compiler::LinkedMac mac = e.mac0;
  mac.target_data = y;
  mac.factors[e.x_factor].data = x;
  std::fill(y.begin(), y.end(), 0.0);
  try {
    runner->run(mac);
  } catch (...) {
    const std::lock_guard<std::mutex> lk(e.pool_mu);
    e.free_runners.push_back(std::move(runner));
    throw;
  }
  const std::lock_guard<std::mutex> lk(e.pool_mu);
  e.free_runners.push_back(std::move(runner));
}

void KernelServer::serve_batched(const std::shared_ptr<CacheEntry>& e,
                                 ConstVectorView x, VectorView y) {
  Pending p;
  p.x = x;
  p.y = y;
  std::unique_lock<std::mutex> lk(e->batch_mu);
  e->queue.push_back(&p);
  if (e->leader_active) {
    // Follower: the current leader drains the queue (including us) in
    // sweeps. It cannot release leadership while our request is queued —
    // both the exit check and our enqueue run under batch_mu — but the
    // predicate tolerates it by promoting us to leader below.
    e->batch_cv.wait(lk, [&] { return p.done || !e->leader_active; });
    if (p.done) {
      if (p.error) std::rethrow_exception(p.error);
      return;
    }
  }
  // Leader: drain the queue in sweeps of at most max_batch until empty,
  // then hand leadership back. Requests that arrive mid-sweep coalesce
  // into the next one.
  e->leader_active = true;
  if (opts_.max_batch > 1) {
    // Batching window: one yield before the first sweep lets requests
    // racing with ours enqueue and coalesce. Without it, a single-core
    // host drains every request as a batch of one — the leader always
    // finishes before the next client is even scheduled.
    lk.unlock();
    std::this_thread::yield();
    lk.lock();
  }
  while (!e->queue.empty()) {
    std::vector<Pending*> batch;
    while (!e->queue.empty() &&
           static_cast<int>(batch.size()) < opts_.max_batch) {
      batch.push_back(e->queue.front());
      e->queue.pop_front();
    }
    lk.unlock();
    std::exception_ptr err;
    try {
      run_batch(*e, batch);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    for (Pending* q : batch) {
      q->done = true;
      q->error = err;
    }
    e->batch_cv.notify_all();
  }
  e->leader_active = false;
  lk.unlock();
  e->batch_cv.notify_all();
  if (p.error) std::rethrow_exception(p.error);
}

void KernelServer::run_batch(CacheEntry& e, const std::vector<Pending*>& batch) {
  const int k = static_cast<int>(batch.size());
  if (k == 1) {
    run_single(e, batch[0]->x, batch[0]->y);
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(cache_mu_);
    ++stats_.batches;
    stats_.batched_requests += k;
  }
  batches_counter_.add(1);
  batched_counter_.add(k);

  // SpMM-style multi-vector sweep: one pass over the sparse rows serves
  // all k right-hand sides (src/blas spmm's loop order, row-outer /
  // nonzero-middle / rhs-inner). Bitwise contract with the unbatched
  // engine path: per (row, nonzero, request) the multiply chain is
  // exactly the engine sink's — prod = scale; prod *= A; prod *= x;
  // acc += prod — in ascending-nonzero order per row, and double-precision
  // memory round-trips are exact, so a register accumulator vs per-element
  // += cannot differ. tests/server_test.cpp enforces this against both
  // serial CompiledKernel execution and blas::spmm.
  const formats::Csr& m = *e.matrix;
  const auto rowptr = m.rowptr();
  const auto colind = m.colind();
  const auto vals = m.vals();
  const value_t scale = e.mac0.scale;
  std::vector<const value_t*> xs(static_cast<std::size_t>(k));
  std::vector<value_t*> ys(static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r) {
    const std::size_t ri = static_cast<std::size_t>(r);
    xs[ri] = batch[ri]->x.data();
    ys[ri] = batch[ri]->y.data();
    std::fill(batch[ri]->y.begin(), batch[ri]->y.end(), 0.0);
  }
  const index_t rows = m.rows();
  auto sweep_rows = [&](index_t row_begin, index_t row_end) {
    for (index_t i = row_begin; i < row_end; ++i) {
      for (index_t ee = rowptr[static_cast<std::size_t>(i)];
           ee < rowptr[static_cast<std::size_t>(i) + 1]; ++ee) {
        const value_t av = vals[static_cast<std::size_t>(ee)];
        const index_t col = colind[static_cast<std::size_t>(ee)];
        for (int r = 0; r < k; ++r) {
          value_t prod = scale;
          prod *= av;
          prod *= xs[static_cast<std::size_t>(r)][col];
          ys[static_cast<std::size_t>(r)][i] += prod;
        }
      }
    }
  };

  const long long t0 = now_ns();
  const int nthreads = std::min<int>(std::max(opts_.sweep_threads, 1),
                                     std::max<int>(rows, 1));
  if (nthreads <= 1) {
    sweep_rows(0, rows);
  } else {
    // Row-chunked over the shared pool: disjoint output rows, per-row
    // work independent of scheduling, so results stay deterministic.
    // Safe from pool threads too — run_slots degrades inline there.
    support::shared_pool(nthreads).run_slots(nthreads, [&](int slot) {
      const index_t chunk = (rows + nthreads - 1) / nthreads;
      const index_t begin = std::min<index_t>(rows, slot * chunk);
      const index_t end = std::min<index_t>(rows, begin + chunk);
      sweep_rows(begin, end);
    });
  }
  // The sweep stood in for k engine runs: commit what those k runs would
  // have booked, as one group, with the latency samples splitting the
  // sweep's wall time by an exact integer sum.
  e.record.wall_ns = now_ns() - t0;
  e.lp.sink->commit(e.record, k);
}

}  // namespace bernoulli::server
