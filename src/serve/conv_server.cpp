#include "serve/conv_server.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace flash::serve {

namespace {

std::atomic<void (*)(std::size_t, std::size_t)> g_batch_hook{nullptr};

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// FNV-1a over the weight values: two plans batch together only when their
/// kernels agree value-for-value, not merely in shape.
std::uint64_t fnv1a(const std::vector<hemath::i64>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (hemath::i64 v : values) {
    auto u = static_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Content key: every input that can change a single output bit of a request
/// participates. Specs that collide here are interchangeable by construction.
std::string plan_key(const PlanSpec& spec) {
  const bfv::BfvParams& p = spec.ctx->params();
  std::ostringstream key;
  key << p.n << '/' << p.q << '/' << p.t << '/' << p.error_sigma << '|'
      << static_cast<int>(spec.backend) << '|';
  if (spec.approx_config.has_value()) {
    const fft::FxpFftConfig& c = *spec.approx_config;
    key << c.input_frac_bits << ',' << c.data_width << ',' << c.twiddle_k << ','
        << c.twiddle_min_exp << ',' << static_cast<int>(c.rounding) << ',';
    for (int b : c.stage_frac_bits) key << b << ';';
  }
  key << '|' << spec.protocol_seed << '|' << spec.stride << ',' << spec.pad << '|'
      << spec.weights.out_channels() << 'x' << spec.weights.in_channels() << 'x'
      << spec.weights.kernel_h() << 'x' << spec.weights.kernel_w() << '|' << spec.in_h << 'x'
      << spec.in_w << '|' << fnv1a(spec.weights.data());
  return key.str();
}

}  // namespace

const char* to_string(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kRunning: return "running";
    case RequestState::kDone: return "done";
    case RequestState::kRejected: return "rejected";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kDeadlineExceeded: return "deadline_exceeded";
    case RequestState::kFailed: return "failed";
  }
  return "?";
}

/// Shared request record. `mu` guards state transitions and the result;
/// the payload fields (x, stream_base, deadline, plan) are written before
/// the record is published to the queue and read-only afterwards.
struct ConvFuture::Shared {
  // Immutable after submit().
  PlanId plan = 0;
  tensor::Tensor3 x{1, 1, 1};
  std::uint64_t stream = 0;
  std::optional<Clock::time_point> deadline;
  Clock::time_point admit_time{};
  ServerMetrics* metrics = nullptr;  // valid while non-terminal (server alive)

  mutable std::mutex mu;
  std::condition_variable cv;
  RequestState state FLASH_GUARDED_BY(mu) = RequestState::kQueued;
  protocol::ConvRunnerResult result FLASH_GUARDED_BY(mu);
  std::string error FLASH_GUARDED_BY(mu);
  double retry_after_s FLASH_GUARDED_BY(mu) = 0.0;
  /// Fired exactly once, after the terminal transition and with no locks
  /// held (see ConvFuture::on_terminal). Taken under mu, invoked outside it.
  std::function<void()> on_terminal FLASH_GUARDED_BY(mu);

  static bool terminal(RequestState s) {
    return s != RequestState::kQueued && s != RequestState::kRunning;
  }

  /// Move the callback out under the lock so the (unlocked) caller fires it
  /// exactly once; every terminal transition site goes through this.
  std::function<void()> take_callback() FLASH_REQUIRES(mu) {
    std::function<void()> cb = std::move(on_terminal);
    on_terminal = nullptr;
    return cb;
  }

  void complete(RequestState terminal_state) {
    std::function<void()> cb;
    {
      std::lock_guard<std::mutex> lock(mu);
      state = terminal_state;
      cb = take_callback();
      cv.notify_all();
    }
    if (cb) cb();
  }
};

// The cv-wait predicates below read guarded state under the waited-on lock —
// a pattern the static analysis cannot follow through std::unique_lock
// (thread_annotations.hpp conventions), hence NO_THREAD_SAFETY_ANALYSIS.
void ConvFuture::wait() const FLASH_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [&] { return Shared::terminal(shared_->state); });
}

bool ConvFuture::wait_for(std::chrono::nanoseconds d) const FLASH_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<std::mutex> lock(shared_->mu);
  return shared_->cv.wait_for(lock, d, [&] { return Shared::terminal(shared_->state); });
}

bool ConvFuture::done() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return Shared::terminal(shared_->state);
}

RequestState ConvFuture::state() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->state;
}

const protocol::ConvRunnerResult& ConvFuture::result() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (shared_->state != RequestState::kDone) {
    throw std::logic_error(std::string("ConvFuture::result() in state ") +
                           to_string(shared_->state));
  }
  return shared_->result;
}

std::string ConvFuture::error() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->error;
}

double ConvFuture::retry_after_s() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->retry_after_s;
}

std::uint64_t ConvFuture::stream() const { return shared_->stream; }

bool ConvFuture::cancel() {
  std::function<void()> cb;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (shared_->state != RequestState::kQueued) return false;
    // A kQueued request implies the server is alive (drain forces every
    // queued request terminal before the server dies) — but only until the
    // kCancelled state is observable: the moment we release mu, a dispatcher
    // can sweep this entry, drain() can return, and the server (owner of
    // `metrics`) can be destroyed. So the counter update must happen here,
    // before the transition publishes, not after the unlock.
    shared_->metrics->cancelled.inc();
    shared_->state = RequestState::kCancelled;
    cb = shared_->take_callback();
    shared_->cv.notify_all();
  }
  if (cb) cb();
  return true;
}

void ConvFuture::on_terminal(std::function<void()> fn) {
  bool fire_now = false;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (Shared::terminal(shared_->state)) {
      fire_now = true;  // fire below, outside the lock
    } else {
      shared_->on_terminal = std::move(fn);
    }
  }
  if (fire_now) fn();
}

/// One registered layer: its own protocol instance (per-plan seed and
/// backend) plus the precomputed ConvPlan. register_plan fills conv_plan and
/// certificate before it publishes the plan; immutable afterwards except for
/// the stream counter.
struct ConvServer::Plan {
  Plan(const PlanSpec& spec, core::ThreadPool* pool)
      : key(plan_key(spec)),
        protocol(*spec.ctx, spec.backend, spec.approx_config, spec.protocol_seed, pool),
        runner(protocol, pool) {}

  std::string key;
  protocol::HConvProtocol protocol;
  protocol::ConvRunner runner;
  std::shared_ptr<const protocol::ConvPlan> conv_plan;
  /// Decryption-correctness certificate, set at registration unless
  /// CertifyPolicy::kOff (read without a lock once published).
  std::optional<protocol::PlanCertificate> certificate;
  std::atomic<std::uint64_t> next_stream{0};
};

ConvServer::ConvServer(ServerOptions options) : options_(options) {
  dispatchers_.reserve(options_.dispatchers);
  for (std::size_t i = 0; i < options_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

ConvServer::~ConvServer() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
}

PlanId ConvServer::register_plan(const PlanSpec& spec) {
  if (spec.ctx == nullptr) throw std::invalid_argument("PlanSpec.ctx is null");
  if (spec.in_h == 0 || spec.in_w == 0) throw std::invalid_argument("PlanSpec input shape unset");
  const std::string key = plan_key(spec);
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (plans_[i]->key == key) return i;
    }
  }
  // Prepare outside the lock: weight transforms are the expensive part and
  // registrations for different plans shouldn't serialize. A concurrent
  // duplicate registration wastes one preparation; content-identical plans
  // still dedup below (first insert wins).
  auto plan = std::make_shared<Plan>(spec, options_.pool);
  Clock::time_point t0 = now();
  plan->conv_plan = plan->runner.prepare(spec.weights.in_channels(), spec.in_h, spec.in_w,
                                         spec.weights, spec.stride, spec.pad);
  metrics_.register_prepare.record_ns(elapsed_ns(t0, now()));
  if (options_.certify != CertifyPolicy::kOff) {
    // The certificate reads the spectra just prepared; no FXP transform runs
    // twice.
    t0 = now();
    plan->certificate = protocol::certify_plan(spec.ctx->params(), spec.backend,
                                               spec.approx_config, *plan->conv_plan,
                                               options_.pool);
    metrics_.register_certify.record_ns(elapsed_ns(t0, now()));
    if (plan->certificate->proven()) {
      metrics_.plans_certified_proven.inc();
    } else if (options_.certify == CertifyPolicy::kEnforce) {
      metrics_.plans_rejected_uncertified.inc();
      throw std::invalid_argument("plan failed decryption-correctness certification: " +
                                  plan->certificate->overall.detail);
    } else {
      metrics_.plans_certified_unproven.inc();
    }
  }
  std::lock_guard<std::mutex> lock(plans_mu_);
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    if (plans_[i]->key == key) return i;
  }
  plans_.push_back(std::move(plan));
  return plans_.size() - 1;
}

std::optional<protocol::PlanCertificate> ConvServer::plan_certificate(PlanId plan) const {
  std::lock_guard<std::mutex> lock(plans_mu_);
  if (plan >= plans_.size()) return std::nullopt;
  return plans_[plan]->certificate;
}

// submit/dispatch/drain below hand a std::unique_lock across early-unlock
// and helper boundaries, which the static analysis cannot follow
// (thread_annotations.hpp conventions) — annotated out one by one, never a
// blanket file-level opt-out; every lock_guard-only path stays analyzed.
ConvFuture ConvServer::submit(PlanId plan_id, tensor::Tensor3 x,
                              SubmitOptions options) FLASH_NO_THREAD_SAFETY_ANALYSIS {
  std::shared_ptr<Plan> plan;
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    if (plan_id >= plans_.size()) throw std::out_of_range("unknown PlanId");
    plan = plans_[plan_id];
  }

  metrics_.submitted.inc();
  auto shared = std::make_shared<ConvFuture::Shared>();
  shared->plan = plan_id;
  shared->x = std::move(x);
  shared->metrics = &metrics_;
  shared->admit_time = now();
  if (options.timeout.has_value()) {
    shared->deadline = shared->admit_time + *options.timeout;
  } else {
    shared->deadline = options.deadline;
  }

  // Deadline already expired: terminal before it ever costs queue space.
  if (shared->deadline.has_value() && now() >= *shared->deadline) {
    metrics_.deadline_expired_at_admission.inc();
    shared->complete(RequestState::kDeadlineExceeded);
    return ConvFuture(shared);
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_ || stop_) {
      lock.unlock();
      metrics_.rejected_draining.inc();
      std::lock_guard<std::mutex> slock(shared->mu);
      shared->state = RequestState::kRejected;
      shared->error = "server draining";
      shared->retry_after_s = 0.0;  // draining is permanent; do not retry here
      shared->cv.notify_all();
      return ConvFuture(shared);
    }
    if (queue_.size() >= options_.max_queue) {
      lock.unlock();
      metrics_.rejected_queue_full.inc();
      const double retry_after = retry_after_estimate_s();
      std::lock_guard<std::mutex> slock(shared->mu);
      shared->state = RequestState::kRejected;
      shared->error = "queue full";
      shared->retry_after_s = retry_after;
      shared->cv.notify_all();
      return ConvFuture(shared);
    }
    shared->stream = options.stream.has_value()
                         ? *options.stream
                         : plan->next_stream.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(shared);
    metrics_.admitted.inc();
    metrics_.queue_depth.add(1);
  }
  queue_cv_.notify_one();
  return ConvFuture(shared);
}

bool ConvServer::dispatch_once() FLASH_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  dispatch_batch(lock);
  return true;
}

void ConvServer::dispatch_batch(std::unique_lock<std::mutex>& lock)
    FLASH_NO_THREAD_SAFETY_ANALYSIS {
  // Oldest request picks the plan (FIFO fairness across plans); same-plan
  // requests anywhere in the queue ride along up to max_batch.
  std::vector<std::shared_ptr<ConvFuture::Shared>> batch;
  const PlanId plan_id = queue_.front()->plan;
  const std::size_t limit = std::max<std::size_t>(options_.max_batch, 1);
  for (auto it = queue_.begin(); it != queue_.end() && batch.size() < limit;) {
    if ((*it)->plan == plan_id) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  metrics_.queue_depth.sub(static_cast<std::int64_t>(batch.size()));
  metrics_.inflight.add(static_cast<std::int64_t>(batch.size()));

  std::shared_ptr<Plan> plan;
  {
    std::lock_guard<std::mutex> plock(plans_mu_);
    plan = plans_[plan_id];
  }

  lock.unlock();
  run_batch(*plan, batch);
  lock.lock();
  drain_cv_.notify_all();
}

void ConvServer::run_batch(Plan& plan, std::vector<std::shared_ptr<ConvFuture::Shared>>& batch) {
  if (auto* hook = g_batch_hook.load(std::memory_order_acquire)) {
    hook(batch.front()->plan, batch.size());
  }
  const Clock::time_point pickup = now();
  std::size_t executed = 0;

  for (auto& req : batch) {
    // Claim: exactly one of {this claim, a racing cancel()} wins. A lost
    // claim (already cancelled) just releases the slot.
    {
      bool deadline_expired = false;
      std::function<void()> cb;
      {
        std::lock_guard<std::mutex> lock(req->mu);
        if (req->state == RequestState::kCancelled) {
          // cancel() already fired the completion callback.
          metrics_.inflight.sub(1);
          continue;
        }
        if (req->deadline.has_value() && now() >= *req->deadline) {
          req->state = RequestState::kDeadlineExceeded;
          cb = req->take_callback();
          req->cv.notify_all();
          deadline_expired = true;
        } else {
          req->state = RequestState::kRunning;
        }
      }
      if (deadline_expired) {
        metrics_.deadline_expired_in_queue.inc();
        metrics_.inflight.sub(1);
        if (cb) cb();
        continue;
      }
    }
    const Clock::time_point start = now();
    metrics_.queue_wait.record_ns(elapsed_ns(req->admit_time, start));

    protocol::ConvRunnerResult result;
    std::string error;
    bool ok = true;
    try {
      result = plan.runner.run(req->x, *plan.conv_plan, req->stream << 32);
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }

    const Clock::time_point end = now();
    std::function<void()> cb;
    {
      std::lock_guard<std::mutex> lock(req->mu);
      if (ok) {
        req->result = std::move(result);
        req->state = RequestState::kDone;
      } else {
        req->error = std::move(error);
        req->state = RequestState::kFailed;
      }
      cb = req->take_callback();
      req->cv.notify_all();
    }
    (ok ? metrics_.completed : metrics_.failed).inc();
    metrics_.service.record_ns(elapsed_ns(start, end));
    metrics_.end_to_end.record_ns(elapsed_ns(req->admit_time, end));
    metrics_.inflight.sub(1);
    // Fired after the metrics update so a callback observing the server
    // sees this request fully accounted; no locks are held here, so the
    // callback may submit follow-up requests.
    if (cb) cb();
    ++executed;
  }

  if (executed > 0) {
    metrics_.batches_dispatched.inc();
    metrics_.note_batch(batch.front()->plan, executed);
    const std::uint64_t batch_ns = elapsed_ns(pickup, now());
    const std::uint64_t prev = batch_ewma_q8_.load(std::memory_order_relaxed);
    batch_ewma_q8_.store(ewma::update_q8(prev, batch_ns), std::memory_order_relaxed);
  }
}

double ConvServer::retry_after_estimate_s() const {
  const std::uint64_t per_batch_ns = ewma::ewma_ns(batch_ewma_q8_.load(std::memory_order_relaxed));
  if (per_batch_ns == 0) {
    // Cold start: no batch has been timed yet. The configured default is
    // the hint, clamped to the positive floor — a 0 here would tell every
    // rejected client to hammer the server again immediately.
    return std::max(options_.default_retry_after_s, kMinRetryAfterS);
  }
  // Full queue => ~max_queue/max_batch batches ahead of a retried request.
  const double batches_ahead =
      static_cast<double>(options_.max_queue) /
          static_cast<double>(std::max<std::size_t>(options_.max_batch, 1)) +
      1.0;
  return std::max(batches_ahead * static_cast<double>(per_batch_ns) * 1e-9, kMinRetryAfterS);
}

void ConvServer::drain() FLASH_NO_THREAD_SAFETY_ANALYSIS {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  if (options_.dispatchers == 0) {
    while (dispatch_once()) {
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] {
    return queue_.empty() && metrics_.inflight.value() == 0;
  });
}

void ConvServer::dispatcher_loop() FLASH_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (!queue_.empty()) {
      dispatch_batch(lock);
      continue;  // re-check: stop_ may have been set while we ran
    }
    if (stop_) return;
  }
}

std::string ConvServer::metrics_json() const {
  // Per-plan certification verdicts, rendered here (not in ServerMetrics —
  // the certificates live on the plans). Snapshot the shared_ptrs under the
  // lock, format outside it.
  std::vector<std::shared_ptr<Plan>> plans;
  {
    std::lock_guard<std::mutex> lock(plans_mu_);
    plans = plans_;
  }
  std::string certs;
  char buf[160];
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (!plans[i]->certificate.has_value()) continue;
    const analysis::PipelineCertificate& c = plans[i]->certificate->overall;
    std::snprintf(buf, sizeof buf,
                  "%s\"%zu\": {\"verdict\": \"%s\", \"certified_bits\": %.2f, "
                  "\"margin_bits\": %.2f}",
                  certs.empty() ? "" : ", ", i, analysis::to_string(c.verdict),
                  c.certified_noise_bits, c.margin_bits);
    certs += buf;
  }
  if (options_.pool != nullptr) {
    return metrics_.to_json(static_cast<std::int64_t>(options_.pool->thread_count()),
                            static_cast<std::int64_t>(options_.pool->pending_jobs()), certs);
  }
  return metrics_.to_json(-1, -1, certs);
}

namespace testing_hooks {
void set_batch_hook(void (*hook)(std::size_t, std::size_t)) {
  g_batch_hook.store(hook, std::memory_order_release);
}
}  // namespace testing_hooks

}  // namespace flash::serve
