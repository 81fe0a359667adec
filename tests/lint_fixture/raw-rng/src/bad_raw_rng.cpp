// Lint fixture (never compiled): a generator constructed from a literal
// seed outside hemath/sampler and testing/generators. Failure logs cannot
// replay this stream and parallel callers share it. Run with
// `flash_lint --expect raw-rng <this tree>`.
#include <cstdint>
#include <random>

#include "hemath/mt19937.hpp"

namespace flash::fixture {

double bad_noise() {
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(rng);
}

double bad_temporary() {
  return static_cast<double>(std::mt19937_64(99)());
}

std::uint64_t bad_vectorized_generator() {
  hemath::Mt19937_64 gen(4242);
  return gen();
}

}  // namespace flash::fixture
