// Cheetah-style coefficient encoding for homomorphic convolution (paper
// §II-B, Fig. 2; Huang et al., USENIX Security '22).
//
// Cleartext tensors are placed directly into polynomial coefficients so one
// polynomial multiplication computes a whole stride-1 convolution without
// homomorphic rotations:
//
//   activation  x[c*H*W + i*W + j]                      = X[c, i, j]
//   weight      w[(C'-1-c)*H*W + (k-1-i)*W + (k-1-j)]   = K[m, c, i, j]
//
// The product polynomial then carries the convolution output for channel m at
//   y[(C'-1)*H*W + (y'+k-1)*W + (x'+k-1)] = conv(X, K[m])[y', x'].
//
// Carry analysis (see tests): contributions that overflow a row or channel
// boundary can never land on a target coefficient, and negacyclic wraparound
// stays below the target range provided
//   C'*H*W + (k-1)*W + (k-1) <= N,
// which is what channel tiling enforces. Weight polynomials carry only
// C'*k*k nonzeros out of N — the >90% sparsity FLASH exploits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparsefft/pattern.hpp"
#include "tensor/tensor.hpp"

namespace flash::encoding {

using tensor::i64;

/// Geometry of one channel-tiled stride-1 valid convolution encoding.
/// Kernels may be rectangular (stride phases of square kernels are not
/// square); `k` is the kernel height and `k_w` the width, with k_w = 0
/// meaning "square" so brace-initialization with five fields keeps working.
struct ConvGeometry {
  std::size_t n = 0;  // polynomial degree
  std::size_t c = 0;  // total input channels
  std::size_t h = 0, w = 0;  // input spatial dims (already padded)
  std::size_t k = 0;    // kernel height
  std::size_t k_w = 0;  // kernel width (0 = square)

  std::size_t kh() const { return k; }
  std::size_t kw() const { return k_w ? k_w : k; }
  std::size_t out_h() const { return h - kh() + 1; }
  std::size_t out_w() const { return w - kw() + 1; }
  /// Channels that fit in one polynomial without wraparound contamination.
  std::size_t channels_per_poly() const;
  std::size_t channel_tiles() const;
  /// Coefficient slack needed past the channel payload.
  std::size_t slack() const { return (kh() - 1) * w + (kw() - 1); }
};

class ConvEncoder {
 public:
  /// Throws if even a single channel cannot fit in the polynomial (the caller
  /// must spatially tile first; see tiling.hpp).
  ConvEncoder(std::size_t n, std::size_t c, std::size_t h, std::size_t w, std::size_t k);
  ConvEncoder(std::size_t n, std::size_t c, std::size_t h, std::size_t w, std::size_t kh,
              std::size_t kw);

  const ConvGeometry& geometry() const { return geo_; }

  /// Encode the activation channels of tile `tile` into N coefficients.
  std::vector<i64> encode_activation(const tensor::Tensor3& x, std::size_t tile) const;

  /// Encode the weights of output channel m restricted to channel tile `tile`.
  std::vector<i64> encode_weight(const tensor::Tensor4& weights, std::size_t m, std::size_t tile) const;
  /// The same polynomial written into `out` (n values, zeros included) as
  /// the doubles the FP weight transforms read: each weight's signed
  /// representative mod t, as the engine lifts a plaintext.
  void encode_weight_into(const tensor::Tensor4& weights, std::size_t m, std::size_t tile,
                          std::uint64_t t, std::span<double> out) const;

  /// Positions in the product polynomial that hold the out_h x out_w
  /// convolution outputs (row-major).
  std::vector<std::size_t> output_positions() const;

  /// Extract the conv output for one output channel from a product
  /// polynomial (already accumulated over channel tiles).
  std::vector<i64> extract_output(const std::vector<i64>& product) const;

  /// The structural sparsity pattern of any encoded weight polynomial for
  /// this geometry (independent of weight values; zero weights only increase
  /// sparsity).
  sparsefft::SparsityPattern weight_pattern() const;

 private:
  /// Calls put(coefficient, weight) for every weight of (m, tile).
  template <typename Put>
  void place_weight(const tensor::Tensor4& weights, std::size_t m, std::size_t tile,
                    Put put) const;

  ConvGeometry geo_;
};

/// ConvEncoder::weight_pattern() of `geometry` folded onto the N/2-point FFT
/// input: coefficient p lands on position p mod N/2 (the negacyclic fold
/// z[s] = a[s] + i·a[s + N/2]). One SparseFftPlan built on it serves every
/// weight polynomial of the geometry — the served skip-mode weight
/// transform and the certifier's reference FFT both run it.
sparsefft::SparsityPattern folded_weight_pattern(const ConvGeometry& geometry);

/// Full cleartext homomorphic-free reference: encode, schoolbook-multiply in
/// Z (negacyclic), accumulate tiles, extract. Used by tests to validate the
/// encoding against direct conv2d, and by examples as the plaintext path.
tensor::Tensor3 conv2d_via_encoding(const tensor::Tensor3& x, const tensor::Tensor4& weights,
                                    std::size_t n);

}  // namespace flash::encoding
