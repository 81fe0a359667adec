// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around the benchmark's own calls into the library (the
// program itself is not instrumented), kept in memory, and written once as
// Chrome trace-event JSON ("X" complete events) when the run ends. Every
// event carries its own id, its parent's id (0 = root) and a request id in
// "args", so a reader can rebuild the span tree and compute self times.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (ids start at 1; 0 means "no parent").
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a finished span under a previously drawn id. No-op when off.
  void add(std::uint64_t id, std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t parent, int lane, std::uint64_t request) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back({id, parent, request, lane, std::move(name), start, end});
  }

  /// Record a finished span and return its id.
  std::uint64_t add(std::string name, Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent = 0, int lane = 0, std::uint64_t request = 0) {
    const std::uint64_t id = next_id();
    add(id, std::move(name), start, end, parent, lane, request);
    return id;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

  /// Write {"traceEvents": [...]} with microsecond timestamps relative to
  /// the recorder's creation. Returns false if the file cannot be written.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const double ts = std::chrono::duration<double, std::micro>(e.start - origin_).count();
      const double dur = std::chrono::duration<double, std::micro>(e.end - e.start).count();
      out << (i ? ",\n" : "") << "{\"name\": \"" << e.name
          << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.lane
          << ", \"ts\": " << ts << ", \"dur\": " << dur << ", \"args\": {\"id\": " << e.id
          << ", \"parent\": " << e.parent << ", \"request\": " << e.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Event {
    std::uint64_t id, parent, request;
    int lane;
    std::string name;
    Clock::time_point start, end;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

/// Scoped span: draws its id when opened (so children can name it as their
/// parent while it is still open) and records itself when closed.
class Span {
 public:
  Span(Trace& trace, std::string name, std::uint64_t parent = 0, int lane = 0,
       std::uint64_t request = 0)
      : trace_(trace),
        id_(trace.next_id()),
        parent_(parent),
        lane_(lane),
        request_(request),
        name_(std::move(name)),
        start_(Clock::now()) {}
  ~Span() { trace_.add(id_, std::move(name_), start_, Clock::now(), parent_, lane_, request_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }

 private:
  Trace& trace_;
  const std::uint64_t id_, parent_;
  const int lane_;
  const std::uint64_t request_;
  std::string name_;
  const Clock::time_point start_;
};

}  // namespace perfbench
