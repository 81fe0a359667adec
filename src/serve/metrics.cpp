#include "serve/metrics.hpp"

#include <cmath>
#include <sstream>

#include "fft/transform_cache.hpp"

namespace flash::serve {

namespace {

/// Index of the highest set bit; 0 for 0.
int log2_floor(std::uint64_t v) {
  int i = 0;
  while (v >>= 1) ++i;
  return i;
}

}  // namespace

void LatencyHistogram::record_ns(std::uint64_t ns) {
  buckets_[static_cast<std::size_t>(log2_floor(ns))].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

double LatencyHistogram::quantile_ns(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(cumulative) >= target) {
      return std::ldexp(1.0, static_cast<int>(i) + 1);  // bucket upper bound
    }
  }
  return std::ldexp(1.0, 64);
}

void append_histogram_json(std::ostream& out, const LatencyHistogram& h) {
  const std::uint64_t count = h.count();
  if (count == 0) {
    // Empty histogram: all-zero literals. quantile_ns/mean each guard the
    // division individually, but the exporter must not depend on that —
    // a single NaN would corrupt the whole JSON document.
    out << "{\"count\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0, \"mean\": 0}";
    return;
  }
  const auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  const double mean = static_cast<double>(h.sum_ns()) / static_cast<double>(count);
  out << "{\"count\": " << count << ", \"p50\": " << finite(h.quantile_ns(0.50))
      << ", \"p95\": " << finite(h.quantile_ns(0.95)) << ", \"p99\": " << finite(h.quantile_ns(0.99))
      << ", \"mean\": " << finite(mean) << "}";
}

LatencyHistogram& SessionMetrics::layer_latency(std::size_t layer) {
  std::lock_guard<std::mutex> lock(layers_mu_);
  std::unique_ptr<LatencyHistogram>& slot = layers_[layer];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::size_t SessionMetrics::layer_count() const {
  std::lock_guard<std::mutex> lock(layers_mu_);
  return layers_.size();
}

std::uint64_t SessionMetrics::terminal() const {
  return completed.value() + failed.value() + deadline_exceeded.value() + rejected.value();
}

std::string SessionMetrics::to_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  const std::pair<const char*, const Counter*> counters[] = {
      {"started", &started},
      {"completed", &completed},
      {"failed", &failed},
      {"deadline_exceeded", &deadline_exceeded},
      {"rejected", &rejected},
      {"layers_completed", &layers_completed},
  };
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    out << (i ? ", " : "") << "\"" << counters[i].first << "\": " << counters[i].second->value();
  }
  out << "},\n  \"gauges\": {\"active\": " << active.value()
      << "},\n  \"latency_ns\": {\"session_e2e\": ";
  append_histogram_json(out, session_e2e);
  out << "},\n  \"layers\": {";
  {
    std::lock_guard<std::mutex> lock(layers_mu_);
    bool first = true;
    for (const auto& [index, h] : layers_) {
      out << (first ? "" : ", ") << "\"" << index << "\": ";
      append_histogram_json(out, *h);
      first = false;
    }
  }
  out << "}\n}\n";
  return out.str();
}

void ServerMetrics::note_batch(std::size_t plan, std::size_t size) {
  std::lock_guard<std::mutex> lock(plans_mu_);
  PlanBatchStats& s = plans_[plan];
  ++s.batches;
  s.requests += size;
  s.max_batch = std::max(s.max_batch, size);
}

std::map<std::size_t, PlanBatchStats> ServerMetrics::plan_batches() const {
  std::lock_guard<std::mutex> lock(plans_mu_);
  return plans_;
}

std::uint64_t ServerMetrics::terminal() const {
  return rejected_queue_full.value() + rejected_draining.value() + completed.value() +
         failed.value() + cancelled.value() + deadline_expired_at_admission.value() +
         deadline_expired_in_queue.value();
}

std::string ServerMetrics::to_json(std::int64_t pool_threads, std::int64_t pool_pending,
                                   const std::string& certificates) const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  const std::pair<const char*, const Counter*> counters[] = {
      {"submitted", &submitted},
      {"admitted", &admitted},
      {"rejected_queue_full", &rejected_queue_full},
      {"rejected_draining", &rejected_draining},
      {"completed", &completed},
      {"failed", &failed},
      {"cancelled", &cancelled},
      {"deadline_expired_at_admission", &deadline_expired_at_admission},
      {"deadline_expired_in_queue", &deadline_expired_in_queue},
      {"batches_dispatched", &batches_dispatched},
      {"plans_certified_proven", &plans_certified_proven},
      {"plans_certified_unproven", &plans_certified_unproven},
      {"plans_rejected_uncertified", &plans_rejected_uncertified},
  };
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    out << (i ? ", " : "") << "\"" << counters[i].first << "\": " << counters[i].second->value();
  }
  out << "},\n  \"gauges\": {\"queue_depth\": " << queue_depth.value()
      << ", \"inflight\": " << inflight.value() << "},\n  \"latency_ns\": {";
  const std::pair<const char*, const LatencyHistogram*> histograms[] = {
      {"queue_wait", &queue_wait},
      {"service", &service},
      {"end_to_end", &end_to_end},
      {"register_prepare", &register_prepare},
      {"register_certify", &register_certify}};
  for (std::size_t i = 0; i < std::size(histograms); ++i) {
    out << (i ? ", " : "") << "\"" << histograms[i].first << "\": ";
    append_histogram_json(out, *histograms[i].second);
  }
  out << "},\n  \"plans\": {";
  {
    const auto plans = plan_batches();
    bool first = true;
    for (const auto& [id, s] : plans) {
      out << (first ? "" : ", ") << "\"" << id << "\": {\"batches\": " << s.batches
          << ", \"requests\": " << s.requests << ", \"max_batch\": " << s.max_batch
          << ", \"mean_batch\": " << s.mean_batch() << "}";
      first = false;
    }
  }
  out << "},\n  \"certificates\": {" << certificates;
  const fft::TransformCacheStats tc = fft::transform_cache_stats();
  out << "},\n  \"transform_cache\": {\"hits\": " << tc.hits << ", \"misses\": " << tc.misses
      << ", \"ntt_hits\": " << tc.ntt_hits << ", \"ntt_misses\": " << tc.ntt_misses
      << ", \"fft_hits\": " << tc.fft_hits << ", \"fft_misses\": " << tc.fft_misses
      << ", \"fxp_hits\": " << tc.fxp_hits << ", \"fxp_misses\": " << tc.fxp_misses
      << ", \"entries\": " << tc.ntt_entries + tc.fft_entries + tc.fxp_entries
      << "},\n  \"pool\": {\"threads\": " << pool_threads << ", \"pending_jobs\": " << pool_pending
      << "}\n}\n";
  return out.str();
}

double json_number_at(const std::string& json, const std::string& context,
                      const std::string& key) {
  std::size_t from = 0;
  if (!context.empty()) {
    from = json.find(context);
    if (from == std::string::npos) return std::nan("");
  }
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace flash::serve
