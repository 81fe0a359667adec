// Cheetah coefficient encoding for matrix-vector products (fully-connected
// layers). Table IV's "linear layers" cover both convolutions and the FC
// head; this is the FC counterpart of encoder.hpp.
//
// For W in Z^{m x k} and x in Z^k (k <= N):
//   vector   v[i]                 = x[i]                    i in [0, k)
//   matrix   w[r*k + (k-1-i)]     = W[row_base + r][i]      r rows per poly
// The negacyclic product then carries output row_base+r at coefficient
// r*k + k - 1: cross-row contributions cannot reach those positions (same
// carry argument as the convolution encoding; see tests), so one PolyMul
// evaluates floor(N/k) rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace flash::encoding {

using tensor::i64;

class MatVecEncoder {
 public:
  /// n: polynomial degree; in_features = k <= n.
  MatVecEncoder(std::size_t n, std::size_t in_features, std::size_t out_features);

  std::size_t rows_per_poly() const { return rows_per_poly_; }
  std::size_t poly_count() const { return poly_count_; }
  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  /// The input vector, one polynomial (shared by every matrix chunk).
  std::vector<i64> encode_vector(const std::vector<i64>& x) const;

  /// Rows [chunk*rows_per_poly, ...) of the row-major matrix.
  std::vector<i64> encode_matrix(const std::vector<i64>& w_row_major, std::size_t chunk) const;
  /// encode_matrix's polynomial written into `out` (n values) as each
  /// weight's signed representative mod t, in doubles (see
  /// ConvEncoder::encode_weight_into).
  void encode_matrix_into(const std::vector<i64>& w_row_major, std::size_t chunk, std::uint64_t t,
                          std::span<double> out) const;

  /// Positions of the outputs inside a product polynomial.
  std::vector<std::size_t> output_positions(std::size_t chunk) const;

  /// Extract the outputs of one chunk's product.
  std::vector<i64> extract(const std::vector<i64>& product, std::size_t chunk) const;

 private:
  /// Calls put(coefficient, weight) for every weight of `chunk`.
  template <typename Put>
  void place_matrix(const std::vector<i64>& w_row_major, std::size_t chunk, Put put) const;

  std::size_t n_, in_features_, out_features_, rows_per_poly_, poly_count_;
};

/// Reference: full matvec through the encoding with exact integer negacyclic
/// products (the oracle used by tests and the cleartext path).
std::vector<i64> matvec_via_encoding(const std::vector<i64>& w_row_major,
                                     const std::vector<i64>& x, std::size_t out_features,
                                     std::size_t n);

}  // namespace flash::encoding
