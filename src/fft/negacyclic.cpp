#include "fft/negacyclic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/scratch.hpp"

namespace flash::fft {

namespace {
std::size_t checked_half(std::size_t n) {
  if (n < 4 || (n & (n - 1)) != 0) throw std::invalid_argument("NegacyclicFft: n must be a power of two >= 4");
  return n / 2;
}
}  // namespace

NegacyclicFft::NegacyclicFft(std::size_t n) : n_(n), plan_(checked_half(n), +1) {
  const std::size_t m = n_ / 2;
  twist_.resize(m);
  untwist_.resize(m);
  const double base = std::numbers::pi / static_cast<double>(n_);
  for (std::size_t s = 0; s < m; ++s) {
    twist_[s] = std::polar(1.0, base * static_cast<double>(s));
    untwist_[s] = std::conj(twist_[s]);
  }
}

std::vector<cplx> NegacyclicFft::fold(const std::vector<double>& a) const {
  std::vector<cplx> z(n_ / 2);
  fold_into(a, z);
  return z;
}

void NegacyclicFft::fold_into(std::span<const double> a, std::span<cplx> z,
                              const ButterflySchedule* live) const {
  const std::size_t m = n_ / 2;
  if (a.size() != n_ || z.size() != m || (live != nullptr && live->size() != m)) {
    throw std::invalid_argument("NegacyclicFft::fold: size mismatch");
  }
  if (live != nullptr) {
    for (std::uint32_t s : live->live_inputs()) z[s] = cplx{a[s], a[s + m]} * twist_[s];
    return;
  }
  for (std::size_t s = 0; s < m; ++s) z[s] = cplx{a[s], a[s + m]} * twist_[s];
}

std::vector<double> NegacyclicFft::unfold(const std::vector<cplx>& z) const {
  const std::size_t m = n_ / 2;
  if (z.size() != m) throw std::invalid_argument("NegacyclicFft::unfold: size mismatch");
  std::vector<double> a(n_);
  for (std::size_t s = 0; s < m; ++s) {
    const cplx w = z[s] * untwist_[s];
    a[s] = w.real();
    a[s + m] = w.imag();
  }
  return a;
}

std::vector<cplx> NegacyclicFft::forward(const std::vector<double>& a) const {
  std::vector<cplx> z = fold(a);
  plan_.forward(z);
  return z;
}

std::vector<double> NegacyclicFft::inverse(std::vector<cplx> spec) const {
  plan_.inverse(spec);
  return unfold(spec);
}

void NegacyclicFft::forward_into(std::span<const double> a, std::span<cplx> out) const {
  if (a.size() != n_) throw std::invalid_argument("NegacyclicFft::forward: size mismatch");
  const std::size_t m = n_ / 2;
  if (out.size() != m) throw std::invalid_argument("NegacyclicFft::forward: bad output size");
  fold_into(a, out);
  plan_.forward(out);
}

void NegacyclicFft::inverse_into(std::span<const cplx> spec, std::span<double> out,
                                 core::ScratchArena* arena_p) const {
  const std::size_t m = n_ / 2;
  if (spec.size() != m) throw std::invalid_argument("NegacyclicFft::inverse: size mismatch");
  if (out.size() != n_) throw std::invalid_argument("NegacyclicFft::inverse: bad output size");
  core::ScratchArena& arena = core::scratch_or_thread(arena_p);
  core::ScratchFrame frame(arena);
  std::span<cplx> z = frame.alloc<cplx>(m);
  std::copy(spec.begin(), spec.end(), z.begin());
  plan_.inverse(z);
  for (std::size_t s = 0; s < m; ++s) {
    const cplx w = z[s] * untwist_[s];
    out[s] = w.real();
    out[s + m] = w.imag();
  }
}

std::vector<i64> NegacyclicFft::multiply(const std::vector<i64>& a, const std::vector<i64>& b) const {
  if (a.size() != n_ || b.size() != n_) throw std::invalid_argument("NegacyclicFft::multiply: size mismatch");
  std::vector<double> fa(n_), fb(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    fa[i] = static_cast<double>(a[i]);
    fb[i] = static_cast<double>(b[i]);
  }
  std::vector<cplx> sa = forward(fa);
  std::vector<cplx> sb = forward(fb);
  for (std::size_t i = 0; i < sa.size(); ++i) sa[i] *= sb[i];
  std::vector<double> c = inverse(std::move(sa));
  std::vector<i64> out(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = static_cast<i64>(std::llround(c[i]));
  return out;
}

std::vector<u64> NegacyclicFft::multiply_mod(const std::vector<u64>& a, const std::vector<u64>& b, u64 q) const {
  std::vector<i64> sa(n_), sb(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    sa[i] = hemath::to_signed(a[i], q);
    sb[i] = hemath::to_signed(b[i], q);
  }
  std::vector<i64> c = multiply(sa, sb);
  std::vector<u64> out(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = hemath::from_signed(c[i], q);
  return out;
}

std::vector<i64> negacyclic_multiply_i64(const std::vector<i64>& a, const std::vector<i64>& b) {
  const std::size_t n = a.size();
  if (b.size() != n) throw std::invalid_argument("negacyclic_multiply_i64: size mismatch");
  std::vector<i64> c(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (b[j] == 0) continue;
      const i64 prod = a[i] * b[j];
      const std::size_t k = i + j;
      if (k < n) {
        c[k] += prod;
      } else {
        c[k - n] -= prod;
      }
    }
  }
  return c;
}

}  // namespace flash::fft
