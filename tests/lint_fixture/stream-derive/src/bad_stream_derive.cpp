// Lint fixture (never compiled): generators constructed inside parallel
// bodies without deriving a per-index stream. Every worker replays the same
// mask stream — the correlated-randomness bug class the protocol seed
// schedule exists to prevent. Run with
// `flash_lint --expect stream-derive <this tree>`.
#include <cstdint>

#include "core/thread_pool.hpp"
#include "hemath/sampler.hpp"

namespace flash::fixture {

void bad_fixed_seed(core::ThreadPool* pool, std::size_t tiles) {
  core::for_range(pool, tiles, [&](std::size_t tile) {
    hemath::Sampler sampler(12345);  // same stream in every worker
    (void)tile;
    (void)sampler;
  });
}

void bad_no_index(core::ThreadPool& pool, std::size_t tiles, std::uint64_t run_seed) {
  pool.parallel_for(0, tiles, [&](std::size_t tile) {
    // Derived, but not from the loop index: still one stream for all tiles.
    hemath::Sampler sampler(hemath::substream(run_seed, 0, 0));
    (void)tile;
    (void)sampler;
  });
}

void bad_generator_fixed_seed(core::ThreadPool* pool, std::size_t tiles) {
  core::for_range(pool, tiles, [&](std::size_t tile) {
    // flash-lint: allow(raw-rng): the raw seed is audited; the stream is not per tile
    hemath::Mt19937_64 gen(hemath::substream(7, 0, 0));  // same words in every worker
    (void)tile;
    (void)gen;
  });
}

}  // namespace flash::fixture
