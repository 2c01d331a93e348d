#include "server/kernel_server.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>

#include "support/error.hpp"
#include "support/metrics.hpp"

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

/// Everything one cached plan owns. Heap-allocated and address-stable:
/// the kernel's linked program, the LinkedPlan and the mac all borrow
/// storage inside this struct, so it is built in dependency order
/// (buffers -> bindings -> kernel -> linked artifacts) and never moves
/// afterwards. In-flight requests hold the shared_ptr, which is what makes
/// LRU eviction safe mid-request.
struct KernelServer::CacheEntry {
  // Placeholder vectors the compiled views bind. Each request rebinds the
  // mac's x/y spans to its own buffers.
  Vector proto_x;
  Vector proto_y;
  compiler::Bindings bindings;
  compiler::CompiledKernel kernel;

  compiler::LinkedPlan lp;
  compiler::LinkedMac mac0;        // template mac; requests copy + rebind
  std::size_t x_factor = 0;        // mac0.factors index bound to "x"

  // Runner freelist: each concurrent request leases a runner (scratch
  // reuse in steady state), growing on demand under pool_mu.
  std::mutex pool_mu;
  std::vector<std::unique_ptr<compiler::LinkedRunner>> free_runners;
};

KernelServer::KernelServer(ServerOptions opts)
    : opts_(opts),
      requests_counter_(support::counter("server.requests")),
      hits_counter_(support::counter("server.cache.hits")),
      misses_counter_(support::counter("server.cache.misses")),
      evictions_counter_(support::counter("server.cache.evictions")),
      request_latency_(support::metric_latency("server.request.latency")) {
  BERNOULLI_CHECK_MSG(opts_.plan_cache_capacity >= 1,
                      "plan cache capacity must be >= 1");
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
  for (const MatrixRec& r : matrices_)
    BERNOULLI_CHECK_MSG(r.name != name,
                        "a matrix is already registered as " << name);
  matrices_.push_back({name, &m, key.str()});
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
  return e;
}

std::shared_ptr<KernelServer::CacheEntry> KernelServer::get_entry(
    int handle, ConstVectorView x, VectorView y) {
  MatrixRec rec;
  {
    // One critical section per cache hit: the handle, shape and aliasing
    // checks, the request count and the lookup. A rejected request never
    // reaches the cache, so it books no miss and builds nothing.
    const std::lock_guard<std::mutex> lk(cache_mu_);
    BERNOULLI_CHECK_MSG(
        handle >= 0 && static_cast<std::size_t>(handle) < matrices_.size(),
        "unknown server handle " << handle);
    rec = matrices_[static_cast<std::size_t>(handle)];
    const std::size_t rows = static_cast<std::size_t>(rec.matrix->rows());
    const std::size_t cols = static_cast<std::size_t>(rec.matrix->cols());
    BERNOULLI_CHECK_MSG(x.size() == cols && y.size() == rows,
                        "spmv request shape mismatch: x "
                            << x.size() << " y " << y.size() << " vs matrix "
                            << rows << "x" << cols);
    // run_single zeroes y before the engine reads x, so a y that
    // overlaps x would wipe the operand.
    const std::less<const value_t*> lt;
    const bool overlap = !x.empty() && !y.empty() &&
                         lt(x.data(), y.data() + y.size()) &&
                         lt(y.data(), x.data() + x.size());
    BERNOULLI_CHECK_MSG(!overlap, "spmv request x and y overlap");
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

  // Build outside the lock (compile + link is the expensive part); two
  // threads missing the same key may both build, the second one's work is
  // dropped in favor of the published entry.
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
    for (std::size_t i = 0; i < matrices_.size() && handle < 0; ++i)
      if (matrices_[i].name == name) handle = static_cast<int>(i);
  }
  BERNOULLI_CHECK_MSG(handle >= 0, "no matrix registered as " << name);
  spmv(handle, x, y);
}

void KernelServer::spmv(int handle, ConstVectorView x, VectorView y) {
  const long long t0 = now_ns();
  run_single(*get_entry(handle, x, y), x, y);
  request_latency_.record_ns(now_ns() - t0);
}

void KernelServer::run_single(CacheEntry& e, ConstVectorView x, VectorView y) {
  // Lease a pooled runner and rebind the mac's value spans to the request
  // buffers. run(LinkedMac) re-resolves operand slots and re-asks
  // leaf_form() every run, so per-request rebinding is safe.
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

}  // namespace bernoulli::server
