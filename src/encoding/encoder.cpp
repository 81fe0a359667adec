#include "encoding/encoder.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/negacyclic.hpp"
#include "hemath/modular.hpp"

namespace flash::encoding {

std::size_t ConvGeometry::channels_per_poly() const {
  if (n < h * w + slack()) return 0;
  const std::size_t cap = (n - slack()) / (h * w);
  return cap < c ? cap : c;
}

std::size_t ConvGeometry::channel_tiles() const {
  const std::size_t cpp = channels_per_poly();
  if (cpp == 0) return 0;
  return (c + cpp - 1) / cpp;
}

ConvEncoder::ConvEncoder(std::size_t n, std::size_t c, std::size_t h, std::size_t w, std::size_t k)
    : ConvEncoder(n, c, h, w, k, k) {}

ConvEncoder::ConvEncoder(std::size_t n, std::size_t c, std::size_t h, std::size_t w, std::size_t kh,
                         std::size_t kw) {
  geo_ = {n, c, h, w, kh, kw};
  if (kh == 0 || kw == 0 || kh > h || kw > w) {
    throw std::invalid_argument("ConvEncoder: kernel larger than input");
  }
  if (geo_.channels_per_poly() == 0) {
    throw std::invalid_argument("ConvEncoder: spatial patch too large for polynomial degree");
  }
}

template <typename Put>
void ConvEncoder::place_activation(const tensor::Tensor3& x, std::size_t tile, Put put) const {
  if (x.channels() != geo_.c || x.height() != geo_.h || x.width() != geo_.w) {
    throw std::invalid_argument("encode_activation: tensor shape mismatch");
  }
  const std::size_t cpp = geo_.channels_per_poly();
  if (tile >= geo_.channel_tiles()) throw std::out_of_range("encode_activation: tile out of range");
  const std::size_t c0 = tile * cpp;
  for (std::size_t c = c0; c < c0 + cpp && c < geo_.c; ++c) {
    const std::size_t local = c - c0;
    for (std::size_t i = 0; i < geo_.h; ++i) {
      for (std::size_t j = 0; j < geo_.w; ++j) {
        put(local * geo_.h * geo_.w + i * geo_.w + j, x.at(c, i, j));
      }
    }
  }
}

std::vector<i64> ConvEncoder::encode_activation(const tensor::Tensor3& x, std::size_t tile) const {
  std::vector<i64> poly(geo_.n, 0);
  place_activation(x, tile, [&](std::size_t at, i64 v) { poly[at] = v; });
  return poly;
}

void ConvEncoder::encode_activation_into(const tensor::Tensor3& x, std::size_t tile,
                                         std::uint64_t t, std::span<std::uint64_t> out) const {
  if (out.size() != geo_.n) throw std::invalid_argument("encode_activation_into: size mismatch");
  std::fill(out.begin(), out.end(), 0);
  place_activation(x, tile, [&](std::size_t at, i64 v) { out[at] = hemath::from_signed(v, t); });
}

template <typename Put>
void ConvEncoder::place_weight(const tensor::Tensor4& weights, std::size_t m, std::size_t tile,
                               Put put) const {
  if (weights.in_channels() != geo_.c || weights.kernel_h() != geo_.kh() ||
      weights.kernel_w() != geo_.kw()) {
    throw std::invalid_argument("encode_weight: tensor shape mismatch");
  }
  if (m >= weights.out_channels()) throw std::out_of_range("encode_weight: output channel");
  const std::size_t cpp = geo_.channels_per_poly();
  if (tile >= geo_.channel_tiles()) throw std::out_of_range("encode_weight: tile out of range");
  const std::size_t c0 = tile * cpp;
  for (std::size_t c = c0; c < c0 + cpp && c < geo_.c; ++c) {
    const std::size_t local = c - c0;
    for (std::size_t i = 0; i < geo_.kh(); ++i) {
      for (std::size_t j = 0; j < geo_.kw(); ++j) {
        put((cpp - 1 - local) * geo_.h * geo_.w + (geo_.kh() - 1 - i) * geo_.w +
                (geo_.kw() - 1 - j),
            weights.at(m, c, i, j));
      }
    }
  }
}

std::vector<i64> ConvEncoder::encode_weight(const tensor::Tensor4& weights, std::size_t m,
                                            std::size_t tile) const {
  std::vector<i64> poly(geo_.n, 0);
  place_weight(weights, m, tile, [&](std::size_t at, i64 v) { poly[at] = v; });
  return poly;
}

void ConvEncoder::encode_weight_into(const tensor::Tensor4& weights, std::size_t m,
                                     std::size_t tile, std::uint64_t t,
                                     std::span<double> out) const {
  if (out.size() != geo_.n) throw std::invalid_argument("encode_weight_into: size mismatch");
  std::fill(out.begin(), out.end(), 0.0);
  place_weight(weights, m, tile, [&](std::size_t at, i64 v) {
    out[at] = static_cast<double>(hemath::to_signed(hemath::from_signed(v, t), t));
  });
}

std::vector<std::size_t> ConvEncoder::output_positions() const {
  const std::size_t cpp = geo_.channels_per_poly();
  const std::size_t base = (cpp - 1) * geo_.h * geo_.w;
  std::vector<std::size_t> pos;
  pos.reserve(geo_.out_h() * geo_.out_w());
  for (std::size_t y = 0; y < geo_.out_h(); ++y) {
    for (std::size_t x = 0; x < geo_.out_w(); ++x) {
      pos.push_back(base + (y + geo_.kh() - 1) * geo_.w + (x + geo_.kw() - 1));
    }
  }
  return pos;
}

std::vector<i64> ConvEncoder::extract_output(const std::vector<i64>& product) const {
  if (product.size() != geo_.n) throw std::invalid_argument("extract_output: size mismatch");
  std::vector<i64> out;
  out.reserve(geo_.out_h() * geo_.out_w());
  for (std::size_t p : output_positions()) out.push_back(product[p]);
  return out;
}

namespace {
/// Coefficients an encoded weight polynomial of `geo` can occupy, reduced
/// mod `fold` (geo.n: the polynomial itself; geo.n / 2: the FFT input).
sparsefft::SparsityPattern weight_positions(const ConvGeometry& geo, std::size_t fold) {
  const std::size_t cpp = geo.channels_per_poly();
  std::vector<std::size_t> nz;
  nz.reserve(cpp * geo.kh() * geo.kw());
  for (std::size_t local = 0; local < cpp; ++local) {
    for (std::size_t i = 0; i < geo.kh(); ++i) {
      for (std::size_t j = 0; j < geo.kw(); ++j) {
        nz.push_back((local * geo.h * geo.w + i * geo.w + j) % fold);
      }
    }
  }
  return sparsefft::SparsityPattern(fold, std::move(nz));
}
}  // namespace

sparsefft::SparsityPattern ConvEncoder::weight_pattern() const {
  return weight_positions(geo_, geo_.n);
}

sparsefft::SparsityPattern folded_weight_pattern(const ConvGeometry& geometry) {
  return weight_positions(geometry, geometry.n / 2);
}

tensor::Tensor3 conv2d_via_encoding(const tensor::Tensor3& x, const tensor::Tensor4& weights,
                                    std::size_t n) {
  ConvEncoder enc(n, x.channels(), x.height(), x.width(), weights.kernel_h(), weights.kernel_w());
  const auto& geo = enc.geometry();
  tensor::Tensor3 out(weights.out_channels(), geo.out_h(), geo.out_w());
  for (std::size_t m = 0; m < weights.out_channels(); ++m) {
    std::vector<i64> acc(n, 0);
    for (std::size_t tile = 0; tile < geo.channel_tiles(); ++tile) {
      const std::vector<i64> xa = enc.encode_activation(x, tile);
      const std::vector<i64> wa = enc.encode_weight(weights, m, tile);
      const std::vector<i64> prod = fft::negacyclic_multiply_i64(xa, wa);
      for (std::size_t i = 0; i < n; ++i) acc[i] += prod[i];
    }
    const std::vector<i64> vals = enc.extract_output(acc);
    std::size_t idx = 0;
    for (std::size_t y = 0; y < geo.out_h(); ++y) {
      for (std::size_t xx = 0; xx < geo.out_w(); ++xx) out.at(m, y, xx) = vals[idx++];
    }
  }
  return out;
}

}  // namespace flash::encoding
