#include "protocol/hconv_protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <new>
#include <stdexcept>

#include "core/scratch.hpp"
#include "encoding/matvec.hpp"
#include "hemath/simd_batch.hpp"
#include "sparsefft/planner.hpp"

namespace flash::protocol {

namespace {
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Sub-stream tags: every random draw inside one run() is rooted at
// derive(seed, stream) and then split per purpose and per task index, so
// the draw a task makes never depends on scheduling order.
constexpr std::uint64_t kStreamShare = 0;
constexpr std::uint64_t kStreamEncrypt = 1;  // + activation polynomial index
constexpr std::uint64_t kStreamMask = 2;     // + output index

// Outputs per block MAC in run_round. BM_SpectralMacBlock/4096 runs eight
// outputs over 64 ciphertext pairs, with weight spectra streamed from a
// working set beyond L2; at AVX-512 on a 4-vCPU Xeon VM (2 MB L2 per core)
// blocks of 1, 2, 4 and 8 outputs took 4.8, 3.4, 1.8 and 2.1 ms (medians of
// 5). Four keeps a block's eight sums (256 KB at N = 4096) well inside L2.
constexpr std::size_t kMacBlock = 4;

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
      pk_prepared_(bfv::prepare_public_key(ctx, keygen_.public_key(sk_))),
      decryptor_(ctx_, sk_),
      evaluator_(ctx_, backend, std::move(approx_config)),
      pool_(pool),
      next_stream_(0) {}

HConvResult HConvProtocol::run(const tensor::Tensor3& x, const tensor::Tensor4& weights) {
  return run_stream(x, weights, next_stream_.fetch_add(1, std::memory_order_relaxed));
}

std::vector<bfv::PlainSpectrum> HConvProtocol::transform_weights(
    std::size_t count, const WeightRowFn& row, const fft::ButterflySchedule* live) const {
  const auto& p = ctx_.params();
  // Weight transforms (the FLASH-accelerated hot loop), embarrassingly
  // parallel: groups of one SIMD lane width fan out over the pool, and each
  // group is one batched transform. Workers rely on two per-thread/
  // per-process guarantees from the transform layer: the first touch of a
  // transform config builds its tables outside the cache shard lock
  // (concurrent first-touches used to convoy the pool), and each worker's
  // transform scratch comes from its own thread-local arena. Each weight
  // polynomial is encoded once, into its row of the group's doubles there.
  const std::size_t group = hemath::simd_batch::active_group_lanes();
  std::vector<bfv::PlainSpectrum> spec(count);
  core::for_range(pool_, (count + group - 1) / group, [&](std::size_t g) {
    const std::size_t first = g * group;
    const std::size_t k = std::min(group, count - first);
    core::ScratchFrame frame(core::thread_scratch());
    std::span<double> vals = frame.alloc<double>(k * p.n);
    std::span<const double*> rows = frame.alloc<const double*>(k);
    for (std::size_t j = 0; j < k; ++j) {
      row(first + j, vals.subspan(j * p.n, p.n));
      rows[j] = vals.data() + j * p.n;
    }
    evaluator_.engine().transform_signed_batch(
        rows, std::span<bfv::PlainSpectrum>(spec).subspan(first, k), live);
  });
  return spec;
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
  // Every weight polynomial of the unit shares one structural pattern, so
  // one plan schedules all of their FXP transforms (skip mode).
  std::optional<sparsefft::SparseFftPlan> plan;
  if (evaluator_.engine().backend() == bfv::PolyMulBackend::kApproxFft) {
    plan.emplace(p.n / 2, encoding::folded_weight_pattern(enc.geometry()));
  }
  std::vector<bfv::PlainSpectrum> spec = transform_weights(
      out_channels * tiles,
      [&](std::size_t idx, std::span<double> row) {
        enc.encode_weight_into(weights, idx / tiles, idx % tiles, p.t, row);
      },
      plan ? &plan->schedule() : nullptr);
  prepared->spec.resize(out_channels);
  for (std::size_t m = 0; m < out_channels; ++m) {
    const auto row = spec.begin() + static_cast<std::ptrdiff_t>(m * tiles);
    prepared->spec[m].assign(std::make_move_iterator(row),
                             std::make_move_iterator(row + static_cast<std::ptrdiff_t>(tiles)));
  }
  return prepared;
}

HConvResult HConvProtocol::run_stream(const tensor::Tensor3& x, const tensor::Tensor4& weights,
                                      std::uint64_t stream, const PreparedWeights* cached) {
  HConvResult result;
  const bfv::PolyMulCounters ops_before = evaluator_.engine().counters();
  std::shared_ptr<const PreparedWeights> prepared;
  if (cached == nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    prepared = prepare_weights(x.height(), x.width(), weights);
    cached = prepared.get();
    result.profile.weight_transform_s += seconds_since(t0);
  }
  if (!cached->matches(x, weights)) {
    throw std::invalid_argument("HConvProtocol: prepared weights do not match this request");
  }
  const auto& p = ctx_.params();
  encoding::ConvEncoder enc(p.n, x.channels(), x.height(), x.width(), weights.kernel_h(),
                            weights.kernel_w());
  const auto& geo = enc.geometry();
  result.out_h = geo.out_h();
  result.out_w = geo.out_w();

  // --- Sharing: both parties obtain additive shares of the activation.
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t run_seed = hemath::derive_stream_seed(seed_ ^ 0x9e3779b97f4a7c15ULL, stream);
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

  // One ciphertext per channel tile; every output channel's product sits at
  // the same positions.
  const std::vector<std::size_t> positions = enc.output_positions();
  run_round(
      geo.channel_tiles(),
      [&](std::size_t tile, std::span<u64> row) {
        enc.encode_activation_into(x_client, tile, p.t, row);
      },
      [&](std::size_t tile, std::span<u64> row) {
        enc.encode_activation_into(x_server, tile, p.t, row);
      },
      cached->spec, [&](std::size_t) { return std::span<const std::size_t>(positions); },
      run_seed, result);

  result.ops = evaluator_.engine().counters() - ops_before;
  return result;
}

void HConvProtocol::run_round(std::size_t polys, const EncodeFn& client_poly,
                              const EncodeFn& server_poly,
                              const std::vector<std::vector<bfv::PlainSpectrum>>& spec,
                              const PositionsFn& positions, std::uint64_t run_seed,
                              HConvResult& result) const {
  const auto& p = ctx_.params();
  const std::size_t outputs = spec.size();
  const std::size_t threads = pool_ != nullptr ? pool_->thread_count() : 1;
  const std::size_t lanes = hemath::simd_batch::active_group_lanes();

  // --- Client: encrypt its encoded share, one ciphertext per polynomial.
  // Each pool task encrypts one lane group (bfv::encrypt_batch): its
  // polynomials are encoded straight into the group's message rows in the
  // task's scratch arena, and each encrypts under its own derived sampler,
  // so the ciphertexts are the same whatever the grouping or scheduling.
  // The group narrows when there are fewer than a group per thread, so no
  // thread goes without a task (the rule kMacBlock follows).
  auto t0 = std::chrono::steady_clock::now();
  const std::size_t group = std::clamp<std::size_t>(polys / threads, 1, lanes);
  std::vector<bfv::Ciphertext> cts(polys);
  core::for_range(pool_, (polys + group - 1) / group, [&](std::size_t g) {
    const std::size_t first = g * group;
    const std::size_t count = std::min(group, polys - first);
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64> rows = frame.alloc<u64>(count * p.n);
    std::span<const u64*> messages = frame.alloc<const u64*>(count);
    std::span<hemath::Sampler> samplers = frame.alloc<hemath::Sampler>(count);
    for (std::size_t j = 0; j < count; ++j) {
      client_poly(first + j, rows.subspan(j * p.n, p.n));
      messages[j] = rows.data() + j * p.n;
      new (&samplers[j]) hemath::Sampler(substream(run_seed, kStreamEncrypt, g * group + j));
    }
    bfv::encrypt_batch(ctx_, pk_prepared_, messages, samplers,
                       std::span<bfv::Ciphertext>(cts).subspan(first, count));
  });
  result.profile.bytes_client_to_server += polys * ciphertext_bytes(p);
  result.profile.encrypt_s += seconds_since(t0);

  // --- Server: fold in its own share (ct ⊞ {x}^S).
  t0 = std::chrono::steady_clock::now();
  core::for_range(pool_, polys, [&](std::size_t i) {
    bfv::Plaintext share = ctx_.make_plaintext();
    server_poly(i, share.poly.coeffs());
    evaluator_.add_plain_inplace(cts[i], share);
  });
  result.profile.share_encode_s += seconds_since(t0);

  // --- Server: ct ⊠ w through the spectral pipeline of Fig. 4(b): each
  // ciphertext is transformed once (shared across all outputs), its
  // products accumulate point-wise, and one inverse transform produces each
  // output ciphertext. Each pool task owns a block of outputs: one block
  // MAC per ciphertext streams each weight spectrum once into both
  // components' sums, which live in the task's scratch arena and are
  // finalized in place. Every sum still adds i = 0..polys-1 in order, so
  // the block width changes no bit. The block narrows when there are fewer
  // than kMacBlock outputs per thread, so no thread goes without a task.
  t0 = std::chrono::steady_clock::now();
  std::vector<bfv::Evaluator::CiphertextSpectrum> ct_specs(polys);
  core::for_range(pool_, polys,
                  [&](std::size_t i) { ct_specs[i] = evaluator_.transform_ciphertext(cts[i]); });
  const std::size_t block = std::clamp<std::size_t>(outputs / threads, 1, kMacBlock);
  std::vector<bfv::Ciphertext> acc(outputs);
  core::for_range(pool_, (outputs + block - 1) / block, [&](std::size_t task) {
    const std::size_t first = task * block;
    const std::size_t count = std::min(block, outputs - first);
    core::ScratchFrame frame(core::thread_scratch());
    const bfv::SpectralSums sums = evaluator_.engine().zeroed_sums(2 * count, frame);
    std::span<const bfv::PlainSpectrum*> w = frame.alloc<const bfv::PlainSpectrum*>(count);
    for (std::size_t i = 0; i < polys; ++i) {
      for (std::size_t b = 0; b < count; ++b) w[b] = &spec[first + b][i];
      evaluator_.multiply_accumulate(ct_specs[i], w, sums);
    }
    for (std::size_t b = 0; b < count; ++b) acc[first + b] = evaluator_.finalize(sums, b);
  });
  result.profile.cipher_transform_mul_s += seconds_since(t0);

  // --- Server: mask (⊟ s) and "send" back; keep its own share. One derived
  // mask stream per output (scheduling-independent mask values).
  t0 = std::chrono::steady_clock::now();
  result.server_share.resize(outputs);
  core::for_range(pool_, outputs, [&](std::size_t m) {
    hemath::Sampler mask_sampler(substream(run_seed, kStreamMask, m));
    bfv::Plaintext mask = ctx_.make_plaintext();
    mask.poly = mask_sampler.uniform_poly(p.t, p.n);
    evaluator_.sub_plain_inplace(acc[m], mask);
    const std::span<const std::size_t> pos = positions(m);
    auto& share = result.server_share[m];
    share.reserve(pos.size());
    for (std::size_t i : pos) share.push_back(mask.poly[i]);
  });
  result.profile.bytes_server_to_client += outputs * ciphertext_bytes(p);
  result.profile.mask_s += seconds_since(t0);

  // --- Client: decrypt and extract. The output ciphertexts split into
  // groups of one SoA width, so each group's NTTs run as one batched sweep;
  // the groups fan out over the pool and each writes only its own outputs'
  // shares. Every ciphertext decrypts independently, so the shares are
  // bit-identical to a serial loop.
  t0 = std::chrono::steady_clock::now();
  result.client_share.resize(outputs);
  core::for_range(pool_, (outputs + lanes - 1) / lanes, [&](std::size_t g) {
    const std::size_t first = g * lanes;
    const std::size_t count = std::min(lanes, outputs - first);
    const std::vector<bfv::Plaintext> decs =
        decryptor_.decrypt_batch(std::span<const bfv::Ciphertext>(acc).subspan(first, count));
    for (std::size_t k = 0; k < count; ++k) {
      const std::span<const std::size_t> pos = positions(first + k);
      auto& share = result.client_share[first + k];
      share.reserve(pos.size());
      for (std::size_t i : pos) share.push_back(decs[k].poly[i]);
    }
  });
  result.profile.decrypt_s += seconds_since(t0);
}

HConvProtocol::MatVecResult HConvProtocol::run_matvec(const std::vector<i64>& x,
                                                      const std::vector<i64>& w_row_major,
                                                      std::size_t out_features) {
  const auto& p = ctx_.params();
  encoding::MatVecEncoder enc(p.n, x.size(), out_features);
  const std::size_t chunks = enc.poly_count();
  HConvResult round;

  // Server: one weight spectrum per matrix chunk, each multiplying the one
  // activation ciphertext.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<bfv::PlainSpectrum> chunk_spec =
      transform_weights(chunks, [&](std::size_t chunk, std::span<double> row) {
        enc.encode_matrix_into(w_row_major, chunk, p.t, row);
      });
  std::vector<std::vector<bfv::PlainSpectrum>> spec(chunks);
  std::vector<std::vector<std::size_t>> positions(chunks);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    spec[chunk].push_back(std::move(chunk_spec[chunk]));
    positions[chunk] = enc.output_positions(chunk);
  }
  round.profile.weight_transform_s += seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const std::uint64_t run_seed =
      hemath::derive_stream_seed(seed_ ^ 0xd1b54a32d192ed03ULL,
                                 next_stream_.fetch_add(1, std::memory_order_relaxed));
  // flash-lint: allow(raw-rng): substream() derives the seed via derive_stream_seed
  std::mt19937_64 share_rng(substream(run_seed, kStreamShare, 0));
  const SharedVector xs = share(x, p.t, share_rng);
  const std::vector<i64> x_client(xs.client.begin(), xs.client.end());
  const std::vector<i64> x_server(xs.server.begin(), xs.server.end());
  round.profile.share_encode_s += seconds_since(t0);

  // The vector fits one polynomial by MatVecEncoder's constructor contract.
  run_round(
      1, [&](std::size_t, std::span<u64> row) { enc.encode_vector_into(x_client, p.t, row); },
      [&](std::size_t, std::span<u64> row) { enc.encode_vector_into(x_server, p.t, row); }, spec,
      [&](std::size_t chunk) { return std::span<const std::size_t>(positions[chunk]); }, run_seed,
      round);

  MatVecResult result;
  result.profile = round.profile;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    result.client_share.insert(result.client_share.end(), round.client_share[chunk].begin(),
                               round.client_share[chunk].end());
    result.server_share.insert(result.server_share.end(), round.server_share[chunk].begin(),
                               round.server_share[chunk].end());
  }
  result.client_share.resize(out_features);
  result.server_share.resize(out_features);
  return result;
}

}  // namespace flash::protocol
