#include "encoding/matvec.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/negacyclic.hpp"
#include "hemath/modular.hpp"

namespace flash::encoding {

MatVecEncoder::MatVecEncoder(std::size_t n, std::size_t in_features, std::size_t out_features)
    : n_(n), in_features_(in_features), out_features_(out_features) {
  if (in_features == 0 || in_features > n) {
    throw std::invalid_argument("MatVecEncoder: in_features must be in [1, N]");
  }
  if (out_features == 0) throw std::invalid_argument("MatVecEncoder: out_features must be > 0");
  rows_per_poly_ = n_ / in_features_;
  poly_count_ = (out_features_ + rows_per_poly_ - 1) / rows_per_poly_;
}

std::vector<i64> MatVecEncoder::encode_vector(const std::vector<i64>& x) const {
  if (x.size() != in_features_) throw std::invalid_argument("encode_vector: size mismatch");
  std::vector<i64> poly(n_, 0);
  for (std::size_t i = 0; i < in_features_; ++i) poly[i] = x[i];
  return poly;
}

void MatVecEncoder::encode_vector_into(const std::vector<i64>& x, std::uint64_t t,
                                       std::span<std::uint64_t> out) const {
  if (x.size() != in_features_) throw std::invalid_argument("encode_vector: size mismatch");
  if (out.size() != n_) throw std::invalid_argument("encode_vector_into: size mismatch");
  std::fill(out.begin(), out.end(), 0);
  for (std::size_t i = 0; i < in_features_; ++i) out[i] = hemath::from_signed(x[i], t);
}

template <typename Put>
void MatVecEncoder::place_matrix(const std::vector<i64>& w_row_major, std::size_t chunk,
                                 Put put) const {
  if (w_row_major.size() != in_features_ * out_features_) {
    throw std::invalid_argument("encode_matrix: size mismatch");
  }
  if (chunk >= poly_count_) throw std::out_of_range("encode_matrix: chunk out of range");
  const std::size_t row_base = chunk * rows_per_poly_;
  for (std::size_t r = 0; r < rows_per_poly_ && row_base + r < out_features_; ++r) {
    for (std::size_t i = 0; i < in_features_; ++i) {
      put(r * in_features_ + (in_features_ - 1 - i),
          w_row_major[(row_base + r) * in_features_ + i]);
    }
  }
}

std::vector<i64> MatVecEncoder::encode_matrix(const std::vector<i64>& w_row_major,
                                              std::size_t chunk) const {
  std::vector<i64> poly(n_, 0);
  place_matrix(w_row_major, chunk, [&](std::size_t at, i64 v) { poly[at] = v; });
  return poly;
}

void MatVecEncoder::encode_matrix_into(const std::vector<i64>& w_row_major, std::size_t chunk,
                                       std::uint64_t t, std::span<double> out) const {
  if (out.size() != n_) throw std::invalid_argument("encode_matrix_into: size mismatch");
  std::fill(out.begin(), out.end(), 0.0);
  place_matrix(w_row_major, chunk, [&](std::size_t at, i64 v) {
    out[at] = static_cast<double>(hemath::to_signed(hemath::from_signed(v, t), t));
  });
}

std::vector<std::size_t> MatVecEncoder::output_positions(std::size_t chunk) const {
  if (chunk >= poly_count_) throw std::out_of_range("output_positions: chunk out of range");
  std::vector<std::size_t> pos;
  const std::size_t row_base = chunk * rows_per_poly_;
  for (std::size_t r = 0; r < rows_per_poly_ && row_base + r < out_features_; ++r) {
    pos.push_back(r * in_features_ + in_features_ - 1);
  }
  return pos;
}

std::vector<i64> MatVecEncoder::extract(const std::vector<i64>& product, std::size_t chunk) const {
  if (product.size() != n_) throw std::invalid_argument("extract: size mismatch");
  std::vector<i64> out;
  for (std::size_t p : output_positions(chunk)) out.push_back(product[p]);
  return out;
}

std::vector<i64> matvec_via_encoding(const std::vector<i64>& w_row_major,
                                     const std::vector<i64>& x, std::size_t out_features,
                                     std::size_t n) {
  MatVecEncoder enc(n, x.size(), out_features);
  const std::vector<i64> xv = enc.encode_vector(x);
  std::vector<i64> out;
  out.reserve(out_features);
  for (std::size_t chunk = 0; chunk < enc.poly_count(); ++chunk) {
    const std::vector<i64> wv = enc.encode_matrix(w_row_major, chunk);
    const std::vector<i64> prod = fft::negacyclic_multiply_i64(xv, wv);
    const std::vector<i64> vals = enc.extract(prod, chunk);
    out.insert(out.end(), vals.begin(), vals.end());
  }
  out.resize(out_features);
  return out;
}

}  // namespace flash::encoding
