#include "protocol/hconv_protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "encoding/matvec.hpp"
#include "hemath/simd_batch.hpp"

namespace flash::protocol {

namespace {
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Sub-stream tags: every random draw inside one run() is rooted at
// derive(seed, stream) and then split per purpose and per task index, so
// the draw a task makes never depends on scheduling order.
constexpr std::uint64_t kStreamShare = 0;
constexpr std::uint64_t kStreamEncrypt = 1;  // + tile (or chunk) index
constexpr std::uint64_t kStreamMask = 2;     // + output channel index

std::uint64_t substream(std::uint64_t run_seed, std::uint64_t purpose, std::uint64_t index) {
  return hemath::derive_stream_seed(run_seed, (purpose << 32) + index);
}
}  // namespace

std::uint64_t ciphertext_bytes(const bfv::BfvParams& params) {
  const std::uint64_t bits_per_coeff =
      static_cast<std::uint64_t>(std::ceil(std::log2(static_cast<double>(params.q))));
  return 2 * params.n * ((bits_per_coeff + 7) / 8);
}

tensor::Tensor3 HConvResult::reconstruct(u64 t) const {
  tensor::Tensor3 out(client_share.size(), out_h, out_w);
  for (std::size_t m = 0; m < client_share.size(); ++m) {
    const std::vector<i64> vals = protocol::reconstruct(client_share[m], server_share[m], t);
    std::size_t idx = 0;
    for (std::size_t y = 0; y < out_h; ++y) {
      for (std::size_t x = 0; x < out_w; ++x) out.at(m, y, x) = vals[idx++];
    }
  }
  return out;
}

HConvProtocol::HConvProtocol(const bfv::BfvContext& ctx, bfv::PolyMulBackend backend,
                             std::optional<fft::FxpFftConfig> approx_config, std::uint64_t seed,
                             core::ThreadPool* pool)
    : ctx_(ctx),
      seed_(seed),
      keygen_sampler_(seed),
      keygen_(ctx_, keygen_sampler_),
      sk_(keygen_.secret_key()),
      pk_(keygen_.public_key(sk_)),
      pk_prepared_(bfv::prepare_public_key(ctx, pk_)),
      decryptor_(ctx_, sk_),
      evaluator_(ctx_, backend, std::move(approx_config)),
      pool_(pool),
      next_stream_(0) {}

HConvResult HConvProtocol::run(const tensor::Tensor3& x, const tensor::Tensor4& weights) {
  return run_stream(x, weights, next_stream_.fetch_add(1, std::memory_order_relaxed));
}

std::shared_ptr<const HConvProtocol::PreparedWeights> HConvProtocol::prepare_weights(
    std::size_t in_h, std::size_t in_w, const tensor::Tensor4& weights) const {
  const auto& p = ctx_.params();
  encoding::ConvEncoder enc(p.n, weights.in_channels(), in_h, in_w, weights.kernel_h(),
                            weights.kernel_w());
  const std::size_t tiles = enc.geometry().channel_tiles();
  const std::size_t out_channels = weights.out_channels();

  auto prepared = std::make_shared<PreparedWeights>();
  prepared->in_channels = weights.in_channels();
  prepared->in_h = in_h;
  prepared->in_w = in_w;
  prepared->out_channels = out_channels;
  prepared->kh = weights.kernel_h();
  prepared->kw = weights.kernel_w();
  prepared->spec.assign(out_channels, std::vector<bfv::PlainSpectrum>(tiles));
  // Same (m, tile) fan-out — and the same encode + transform per pair — as
  // the inline weight loop of run_stream, so cached and uncached spectra are
  // bit-identical.
  core::for_range(pool_, out_channels * tiles, [&](std::size_t idx) {
    const std::size_t m = idx / tiles;
    const std::size_t tile = idx % tiles;
    bfv::Plaintext pt = ctx_.make_plaintext();
    const std::vector<i64> coeffs = enc.encode_weight(weights, m, tile);
    for (std::size_t i = 0; i < p.n; ++i) pt.poly[i] = hemath::from_signed(coeffs[i], p.t);
    prepared->spec[m][tile] = evaluator_.transform_plain(pt);
  });
  return prepared;
}

HConvResult HConvProtocol::run_stream(const tensor::Tensor3& x, const tensor::Tensor4& weights,
                                      std::uint64_t stream, const PreparedWeights* cached) {
  const auto& p = ctx_.params();
  if (cached != nullptr && !cached->matches(x, weights)) {
    throw std::invalid_argument("HConvProtocol: prepared weights do not match this request");
  }
  encoding::ConvEncoder enc(p.n, x.channels(), x.height(), x.width(), weights.kernel_h(), weights.kernel_w());
  const auto& geo = enc.geometry();
  const std::size_t tiles = geo.channel_tiles();
  const std::size_t out_channels = weights.out_channels();
  const std::uint64_t run_seed = hemath::derive_stream_seed(seed_ ^ 0x9e3779b97f4a7c15ULL, stream);

  HConvResult result;
  result.out_h = geo.out_h();
  result.out_w = geo.out_w();
  const bfv::PolyMulCounters ops_before = evaluator_.engine().counters();

  auto t0 = std::chrono::steady_clock::now();

  // --- Sharing: both parties obtain additive shares of the activation.
  // flash-lint: allow(raw-rng): substream() derives the seed via derive_stream_seed
  std::mt19937_64 share_rng(substream(run_seed, kStreamShare, 0));
  const SharedVector xs = share_tensor(x, p.t, share_rng);
  tensor::Tensor3 x_client(x.channels(), x.height(), x.width());
  tensor::Tensor3 x_server(x.channels(), x.height(), x.width());
  for (std::size_t i = 0; i < xs.client.size(); ++i) {
    x_client.data()[i] = static_cast<i64>(xs.client[i]);
    x_server.data()[i] = static_cast<i64>(xs.server[i]);
  }
  result.profile.share_encode_s += seconds_since(t0);

  // --- Client: encrypt its encoded share, one ciphertext per channel tile.
  // Each tile encrypts under its own derived sampler, so the ciphertext a
  // tile produces is the same whether the loop runs serial or parallel.
  t0 = std::chrono::steady_clock::now();
  std::vector<bfv::Ciphertext> cts(tiles, ctx_.make_ciphertext());
  core::for_range(pool_, tiles, [&](std::size_t tile) {
    bfv::Plaintext pt = ctx_.make_plaintext();
    const std::vector<i64> coeffs = enc.encode_activation(x_client, tile);
    for (std::size_t i = 0; i < p.n; ++i) pt.poly[i] = static_cast<u64>(coeffs[i]) % p.t;
    hemath::Sampler tile_sampler(substream(run_seed, kStreamEncrypt, tile));
    bfv::Encryptor encryptor(ctx_, tile_sampler);
    cts[tile] = encryptor.encrypt(pt, pk_prepared_);
  });
  result.profile.bytes_client_to_server += tiles * ciphertext_bytes(p);
  result.profile.encrypt_s += seconds_since(t0);

  // --- Server: fold in its own share (ct ⊞ {x}^S).
  t0 = std::chrono::steady_clock::now();
  core::for_range(pool_, tiles, [&](std::size_t tile) {
    bfv::Plaintext pt = ctx_.make_plaintext();
    const std::vector<i64> coeffs = enc.encode_activation(x_server, tile);
    for (std::size_t i = 0; i < p.n; ++i) pt.poly[i] = static_cast<u64>(coeffs[i]) % p.t;
    evaluator_.add_plain_inplace(cts[tile], pt);
  });
  result.profile.share_encode_s += seconds_since(t0);

  // --- Server: weight transforms (the FLASH-accelerated hot loop),
  // embarrassingly parallel over (output channel, tile) pairs. Workers rely
  // on two per-thread/per-process guarantees from the transform layer: the
  // first touch of a transform config builds its tables outside the cache
  // shard lock (concurrent first-touches here used to convoy the pool), and
  // each worker's transform scratch comes from its own thread-local arena,
  // so the steady-state tile loop does not allocate.
  t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<bfv::PlainSpectrum>> wspec_local;
  if (cached == nullptr) {
    wspec_local.assign(out_channels, std::vector<bfv::PlainSpectrum>(tiles));
    core::for_range(pool_, out_channels * tiles, [&](std::size_t idx) {
      const std::size_t m = idx / tiles;
      const std::size_t tile = idx % tiles;
      bfv::Plaintext pt = ctx_.make_plaintext();
      const std::vector<i64> coeffs = enc.encode_weight(weights, m, tile);
      for (std::size_t i = 0; i < p.n; ++i) pt.poly[i] = hemath::from_signed(coeffs[i], p.t);
      wspec_local[m][tile] = evaluator_.transform_plain(pt);
    });
    result.profile.weight_transform_s += seconds_since(t0);
  }
  const std::vector<std::vector<bfv::PlainSpectrum>>& wspec =
      cached != nullptr ? cached->spec : wspec_local;

  // --- Server: ct ⊠ w through the spectral pipeline of Fig. 4(b): each
  // ciphertext is transformed once (shared across all output channels),
  // channel tiles accumulate point-wise, and one inverse transform produces
  // each output ciphertext. Each output channel owns its accumulator, so
  // the channel loop parallelizes without sharing mutable state.
  t0 = std::chrono::steady_clock::now();
  std::vector<bfv::Evaluator::CiphertextSpectrum> ct_specs(tiles);
  core::for_range(pool_, tiles, [&](std::size_t tile) {
    ct_specs[tile] = evaluator_.transform_ciphertext(cts[tile]);
  });
  std::vector<bfv::Ciphertext> acc(out_channels, ctx_.make_ciphertext());
  core::for_range(pool_, out_channels, [&](std::size_t m) {
    bfv::Evaluator::CiphertextAccumulator accum;
    for (std::size_t tile = 0; tile < tiles; ++tile) {
      evaluator_.multiply_accumulate(ct_specs[tile], wspec[m][tile], accum);
    }
    acc[m] = evaluator_.finalize(accum);
  });
  result.profile.cipher_transform_mul_s += seconds_since(t0);

  // --- Server: mask (⊟ s) and "send" back; keep its own share. One derived
  // mask stream per output channel (scheduling-independent mask values).
  t0 = std::chrono::steady_clock::now();
  const std::vector<std::size_t> positions = enc.output_positions();
  result.server_share.resize(out_channels);
  core::for_range(pool_, out_channels, [&](std::size_t m) {
    hemath::Sampler mask_sampler(substream(run_seed, kStreamMask, m));
    bfv::Plaintext mask = ctx_.make_plaintext();
    mask.poly = mask_sampler.uniform_poly(p.t, p.n);
    evaluator_.sub_plain_inplace(acc[m], mask);
    auto& share = result.server_share[m];
    share.reserve(positions.size());
    for (std::size_t pos : positions) share.push_back(mask.poly[pos]);
  });
  result.profile.bytes_server_to_client += out_channels * ciphertext_bytes(p);
  result.profile.mask_s += seconds_since(t0);

  // --- Client: decrypt and extract. The output ciphertexts split into
  // groups of one SoA width, so each group's NTTs run as one batched sweep;
  // the groups fan out over the pool and each writes only its own channels'
  // shares. Every ciphertext decrypts independently, so the shares are
  // bit-identical to a serial loop.
  t0 = std::chrono::steady_clock::now();
  const std::size_t group = hemath::simd_batch::active_group_lanes();
  result.client_share.resize(out_channels);
  core::for_range(pool_, (out_channels + group - 1) / group, [&](std::size_t g) {
    const std::size_t first = g * group;
    const std::size_t count = std::min(group, out_channels - first);
    const std::vector<bfv::Plaintext> decs =
        decryptor_.decrypt_batch(std::span<const bfv::Ciphertext>(acc).subspan(first, count));
    for (std::size_t k = 0; k < count; ++k) {
      auto& share = result.client_share[first + k];
      share.reserve(positions.size());
      for (std::size_t pos : positions) share.push_back(decs[k].poly[pos]);
    }
  });
  result.profile.decrypt_s += seconds_since(t0);

  result.ops = evaluator_.engine().counters() - ops_before;
  return result;
}


HConvProtocol::MatVecResult HConvProtocol::run_matvec(const std::vector<i64>& x,
                                                      const std::vector<i64>& w_row_major,
                                                      std::size_t out_features) {
  const auto& p = ctx_.params();
  encoding::MatVecEncoder enc(p.n, x.size(), out_features);
  MatVecResult result;
  const std::uint64_t run_seed =
      hemath::derive_stream_seed(seed_ ^ 0xd1b54a32d192ed03ULL,
                                 next_stream_.fetch_add(1, std::memory_order_relaxed));

  auto t0 = std::chrono::steady_clock::now();
  // flash-lint: allow(raw-rng): substream() derives the seed via derive_stream_seed
  std::mt19937_64 share_rng(substream(run_seed, kStreamShare, 0));
  const SharedVector xs = share(x, p.t, share_rng);
  result.profile.share_encode_s += seconds_since(t0);

  // Client: encode + encrypt its share (one polynomial; the vector fits by
  // MatVecEncoder's constructor contract).
  t0 = std::chrono::steady_clock::now();
  std::vector<i64> client_vals(x.size()), server_vals(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    client_vals[i] = static_cast<i64>(xs.client[i]);
    server_vals[i] = static_cast<i64>(xs.server[i]);
  }
  bfv::Plaintext pt_c = ctx_.make_plaintext();
  const std::vector<i64> enc_c = enc.encode_vector(client_vals);
  for (std::size_t i = 0; i < p.n; ++i) pt_c.poly[i] = static_cast<u64>(enc_c[i]) % p.t;
  hemath::Sampler enc_sampler(substream(run_seed, kStreamEncrypt, 0));
  bfv::Encryptor encryptor(ctx_, enc_sampler);
  bfv::Ciphertext ct = encryptor.encrypt(pt_c, pk_prepared_);
  result.profile.bytes_client_to_server += ciphertext_bytes(p);
  result.profile.encrypt_s += seconds_since(t0);

  // Server: fold in its share.
  t0 = std::chrono::steady_clock::now();
  bfv::Plaintext pt_s = ctx_.make_plaintext();
  const std::vector<i64> enc_s = enc.encode_vector(server_vals);
  for (std::size_t i = 0; i < p.n; ++i) pt_s.poly[i] = static_cast<u64>(enc_s[i]) % p.t;
  evaluator_.add_plain_inplace(ct, pt_s);
  result.profile.share_encode_s += seconds_since(t0);

  // Server: matrix chunks through the spectral pipeline, mask, extract.
  // Chunks are independent (the ciphertext spectrum is shared read-only and
  // each chunk has its own mask stream), so they fan out over the pool;
  // per-chunk shares are concatenated in chunk order afterwards.
  t0 = std::chrono::steady_clock::now();
  const bfv::Evaluator::CiphertextSpectrum ct_spec = evaluator_.transform_ciphertext(ct);
  const std::size_t chunks = enc.poly_count();
  std::vector<std::vector<u64>> chunk_server(chunks), chunk_client(chunks);
  core::for_range(pool_, chunks, [&](std::size_t chunk) {
    bfv::Plaintext ptw = ctx_.make_plaintext();
    const std::vector<i64> wv = enc.encode_matrix(w_row_major, chunk);
    for (std::size_t i = 0; i < p.n; ++i) ptw.poly[i] = hemath::from_signed(wv[i], p.t);
    const bfv::PlainSpectrum wspec = evaluator_.transform_plain(ptw);

    bfv::Evaluator::CiphertextAccumulator accum;
    evaluator_.multiply_accumulate(ct_spec, wspec, accum);
    bfv::Ciphertext out = evaluator_.finalize(accum);

    hemath::Sampler mask_sampler(substream(run_seed, kStreamMask, chunk));
    bfv::Plaintext mask = ctx_.make_plaintext();
    mask.poly = mask_sampler.uniform_poly(p.t, p.n);
    evaluator_.sub_plain_inplace(out, mask);

    const bfv::Plaintext dec = decryptor_.decrypt(out);
    for (std::size_t pos : enc.output_positions(chunk)) {
      chunk_server[chunk].push_back(mask.poly[pos]);
      chunk_client[chunk].push_back(dec.poly[pos]);
    }
  });
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    result.server_share.insert(result.server_share.end(), chunk_server[chunk].begin(),
                               chunk_server[chunk].end());
    result.client_share.insert(result.client_share.end(), chunk_client[chunk].begin(),
                               chunk_client[chunk].end());
  }
  result.profile.bytes_server_to_client += chunks * ciphertext_bytes(p);
  result.profile.cipher_transform_mul_s += seconds_since(t0);
  result.client_share.resize(out_features);
  result.server_share.resize(out_features);
  return result;
}

}  // namespace flash::protocol
