#include "fft/transform_cache.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "core/thread_annotations.hpp"

namespace flash::fft {

namespace {

std::atomic<void (*)(const char*)> g_make_hook{nullptr};

void run_make_hook(const char* kind) {
  if (auto* hook = g_make_hook.load(std::memory_order_acquire)) hook(kind);
}

/// One cache shard: the mutex guards only the key → entry map (find/insert,
/// O(log entries) on tiny maps). The table itself is built through the
/// entry's once_flag *after* the lock is dropped, so a slow construction
/// convoys nobody but same-key waiters — the PR-1 lock-convoy fix.
template <typename Key, typename Value>
class Shard {
 public:
  template <typename Make>
  std::shared_ptr<const Value> get_or_make(const Key& key, const char* kind, const Make& make) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = map_.try_emplace(key);
      if (inserted) it->second = std::make_shared<Entry>();
      entry = it->second;
      if (entry->ready.load(std::memory_order_acquire)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry->value;
      }
    }
    // Outside the shard lock: first toucher constructs; same-key racers wait
    // inside call_once; a throwing make() leaves the flag unset so a later
    // lookup retries construction instead of caching the failure.
    bool constructed = false;
    std::call_once(entry->once, [&] {
      run_make_hook(kind);
      entry->value = make();
      entry->ready.store(true, std::memory_order_release);
      constructed = true;
    });
    if (constructed) {
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return entry->value;
  }

  std::size_t ready_entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& [key, entry] : map_) {
      if (entry->ready.load(std::memory_order_acquire)) ++n;
    }
    return n;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();  // in-flight constructions keep their Entry alive via shared_ptr
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::once_flag once;
    std::atomic<bool> ready{false};
    // Written exactly once inside call_once, read only after `ready` is
    // observed true (or after the call_once fence) — no lock needed.
    std::shared_ptr<const Value> value;
  };

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<Entry>> map_ FLASH_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

struct Caches {
  Shard<std::pair<hemath::u64, std::size_t>, hemath::NttTables> ntt;
  Shard<std::size_t, NegacyclicFft> fft;
  Shard<std::string, FxpNegacyclicTransform> fxp;
};

Caches& caches() {
  static Caches c;  // leaked at exit by design (function-local static)
  return c;
}

}  // namespace

/// Every field of the config participates in the key: two design points that
/// differ anywhere produce different twiddle tables / rounding behavior.
std::string fxp_config_key(std::size_t n, const FxpFftConfig& cfg) {
  std::ostringstream key;
  key << n << '|' << cfg.input_frac_bits << '|' << cfg.data_width << '|' << cfg.twiddle_k << '|'
      << cfg.twiddle_min_exp << '|' << static_cast<int>(cfg.rounding) << '|';
  for (int b : cfg.stage_frac_bits) key << b << ',';
  return key.str();
}

std::shared_ptr<const hemath::NttTables> shared_ntt_tables(hemath::u64 q, std::size_t n) {
  return caches().ntt.get_or_make(std::make_pair(q, n), "ntt",
                                  [&] { return std::make_shared<const hemath::NttTables>(q, n); });
}

std::shared_ptr<const NegacyclicFft> shared_negacyclic_fft(std::size_t n) {
  return caches().fft.get_or_make(n, "fft",
                                  [&] { return std::make_shared<const NegacyclicFft>(n); });
}

std::shared_ptr<const FxpNegacyclicTransform> shared_fxp_transform(std::size_t n,
                                                                  const FxpFftConfig& config) {
  return caches().fxp.get_or_make(fxp_config_key(n, config), "fxp", [&] {
    return std::make_shared<const FxpNegacyclicTransform>(n, config);
  });
}

TransformCacheStats transform_cache_stats() {
  Caches& c = caches();
  TransformCacheStats s;
  s.ntt_entries = c.ntt.ready_entries();
  s.fft_entries = c.fft.ready_entries();
  s.fxp_entries = c.fxp.ready_entries();
  s.ntt_hits = c.ntt.hits();
  s.ntt_misses = c.ntt.misses();
  s.fft_hits = c.fft.hits();
  s.fft_misses = c.fft.misses();
  s.fxp_hits = c.fxp.hits();
  s.fxp_misses = c.fxp.misses();
  s.hits = s.ntt_hits + s.fft_hits + s.fxp_hits;
  s.misses = s.ntt_misses + s.fft_misses + s.fxp_misses;
  return s;
}

void clear_transform_caches() {
  Caches& c = caches();
  c.ntt.clear();
  c.fft.clear();
  c.fxp.clear();
}

namespace testing_hooks {
void set_transform_cache_make_hook(void (*hook)(const char* kind)) {
  g_make_hook.store(hook, std::memory_order_release);
}
}  // namespace testing_hooks

}  // namespace flash::fft
