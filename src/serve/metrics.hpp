// Serving-layer observability (ARCHITECTURE.md §9).
//
// Everything a load test or an operator needs to see the queueing behaviour
// of a ConvServer: monotonic counters for every admission outcome, gauges
// for instantaneous queue depth / inflight batches, log-bucketed latency
// histograms with p50/p95/p99 readouts, and per-plan batch-size statistics
// (the batching win is per plan — a plan that never batches is a plan whose
// weight-transform amortization is not paying for itself).
//
// All hot-path recording is lock-free (relaxed atomics); only the per-plan
// batch map takes a mutex, on the dispatch path, once per batch. Snapshots
// are not a consistent cut across instruments — each value is individually
// atomic, which is what dashboards need and exactly what the drain-quiesced
// assertions in tests rely on (after drain() no writer is left, so the
// snapshot IS consistent).
//
// to_json() emits a stable, dependency-free JSON document (schema below)
// that tests parse numbers back out of and CI artifacts archive.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/thread_annotations.hpp"

namespace flash::serve {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two latency buckets over nanoseconds: bucket i counts samples in
/// [2^i, 2^(i+1)) ns (bucket 0 additionally holds 0 ns). 64 buckets cover
/// every representable duration. Quantiles are read as the upper bound of
/// the bucket where the cumulative count crosses p — an overestimate by at
/// most 2x, which is the honest resolution of a log histogram and plenty to
/// see a tail blow up.
class LatencyHistogram {
 public:
  void record_ns(std::uint64_t ns);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  /// p in (0, 1]; returns 0 when empty.
  double quantile_ns(double p) const;

 private:
  std::array<std::atomic<std::uint64_t>, 64> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Append one histogram as {"count":..,"p50":..,"p95":..,"p99":..,"mean":..}.
/// Centralized so every exporter (ServerMetrics, SessionMetrics, the
/// per-layer histograms) shares one empty-histogram guard: count == 0 emits
/// literal zeros — never a 0/0 NaN — and any non-finite value (impossible by
/// construction, but JSON has no NaN/inf literal, so a regression here would
/// corrupt every archived document) is coerced to 0.
void append_histogram_json(std::ostream& out, const LatencyHistogram& h);

struct PlanBatchStats {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  std::size_t max_batch = 0;
  double mean_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(requests) / static_cast<double>(batches);
  }
};

/// The full instrument set of one ConvServer. The admission counters
/// partition terminal outcomes: every submitted request ends in exactly one
/// of {rejected_queue_full, rejected_draining, completed, failed, cancelled,
/// deadline_expired_at_admission, deadline_expired_in_queue} — the soak
/// tier's conservation check.
class ServerMetrics {
 public:
  Counter submitted;
  Counter admitted;
  Counter rejected_queue_full;
  Counter rejected_draining;
  Counter completed;
  Counter failed;
  Counter cancelled;
  Counter deadline_expired_at_admission;
  Counter deadline_expired_in_queue;
  Counter batches_dispatched;

  // Registration-path certification outcomes (one per *unique* plan, not per
  // register_plan call — duplicates dedup before certification). Outside the
  // terminal-outcome conservation law above.
  Counter plans_certified_proven;
  Counter plans_certified_unproven;
  Counter plans_rejected_uncertified;

  Gauge queue_depth;
  Gauge inflight;

  LatencyHistogram queue_wait;   // admission -> batch pickup
  LatencyHistogram service;      // batch pickup -> completion
  LatencyHistogram end_to_end;   // admission -> completion

  // Registration phases: one sample per weight-plan preparation and per
  // certification register_plan runs (a deduplicated registration runs
  // neither; CertifyPolicy::kOff skips certification).
  LatencyHistogram register_prepare;
  LatencyHistogram register_certify;

  void note_batch(std::size_t plan, std::size_t size);
  std::map<std::size_t, PlanBatchStats> plan_batches() const;

  /// Terminal-outcome total (see class comment).
  std::uint64_t terminal() const;

  /// JSON document:
  ///   {"counters": {...}, "gauges": {...},
  ///    "latency_ns": {"queue_wait": {"count":..,"p50":..,"p95":..,"p99":..,"mean":..},
  ///                   "service": {..}, "end_to_end": {..},
  ///                   "register_prepare": {..}, "register_certify": {..}},
  ///    "plans": {"<id>": {"batches":..,"requests":..,"max_batch":..}, ...},
  ///    "certificates": {"<id>": {"verdict": "...", "margin_bits": ..}, ...},
  ///    "transform_cache": {...}, "pool": {...}}
  /// pool_threads/pool_pending < 0 means "no pool attached". `certificates`
  /// is the pre-rendered body of the per-plan verdict map (empty = no
  /// certified plans — ConvServer::metrics_json fills it).
  std::string to_json(std::int64_t pool_threads = -1, std::int64_t pool_pending = -1,
                      const std::string& certificates = {}) const;

 private:
  mutable std::mutex plans_mu_;
  std::map<std::size_t, PlanBatchStats> plans_ FLASH_GUARDED_BY(plans_mu_);
};

/// The instrument set of one NetworkServer (serve/network_session.hpp),
/// under the same conservation law as ServerMetrics one level up: every
/// started session reaches exactly one of {completed, failed,
/// deadline_exceeded, rejected}, so after quiescence
/// terminal() == started and active == 0.
class SessionMetrics {
 public:
  Counter started;
  Counter completed;
  Counter failed;
  Counter deadline_exceeded;
  Counter rejected;
  /// Network layers finished across all sessions (conv and local alike).
  Counter layers_completed;

  Gauge active;

  LatencyHistogram session_e2e;  // start() -> terminal state

  /// Per-layer-index latency across sessions: layer k of every session
  /// feeds histogram k, which is the pipelining view — batching layer k of
  /// concurrent sessions together is exactly what should compress these.
  /// Lazily created, stable address (the recorder keeps the reference).
  LatencyHistogram& layer_latency(std::size_t layer);
  std::size_t layer_count() const;

  /// Terminal-outcome total (see class comment).
  std::uint64_t terminal() const;

  /// JSON document, same conventions as ServerMetrics::to_json():
  ///   {"counters": {...}, "gauges": {"active": ..},
  ///    "latency_ns": {"session_e2e": {...}},
  ///    "layers": {"<index>": {"count":..,"p50":..,...}, ...}}
  std::string to_json() const;

 private:
  mutable std::mutex layers_mu_;
  std::map<std::size_t, std::unique_ptr<LatencyHistogram>> layers_ FLASH_GUARDED_BY(layers_mu_);
};

/// Parse a number back out of a to_json() document: finds `"key": <number>`
/// after the (optional) `context` substring. Returns NaN when absent. This
/// is deliberately in the library, not test code: asserting on the exported
/// JSON (rather than on the in-memory counters) is what pins the export
/// format, and every consumer should use one parser.
double json_number_at(const std::string& json, const std::string& context,
                      const std::string& key);

}  // namespace flash::serve
