// Round-trip and rejection tests for the BFV wire format: every serializable
// object must survive serialize -> deserialize bit-for-bit, and every loader
// must throw (not decode garbage) on truncated, corrupted, or mismatched
// buffers.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bfv/context.hpp"
#include "bfv/encrypt.hpp"
#include "bfv/serialization.hpp"
#include "hemath/sampler.hpp"
#include "testing/generators.hpp"

namespace flash {
namespace {

using bfv::Bytes;
using hemath::derive_stream_seed;

constexpr std::uint64_t kBaseSeed = 0x5e71a112a71015ULL;

struct Fixture {
  bfv::BfvParams params;
  bfv::BfvContext ctx;
  hemath::Sampler sampler;
  bfv::SecretKey sk;
  bfv::PublicKey pk;
  bfv::PreparedPublicKey ppk;

  explicit Fixture(std::uint64_t seed, std::size_t n = 256, int log_t = 14, int log_q = 42)
      : params(bfv::BfvParams::create(n, log_t, log_q)),
        ctx(params),
        sampler(derive_stream_seed(kBaseSeed, seed)),
        sk(bfv::KeyGenerator(ctx, sampler).secret_key()),
        pk(bfv::KeyGenerator(ctx, sampler).public_key(sk)),
        ppk(bfv::prepare_public_key(ctx, pk)) {}
};

TEST(Serialization, ParamsRoundTrip) {
  Fixture f(1);
  const Bytes bytes = bfv::serialize(f.params);
  bfv::ByteReader reader(bytes);
  const bfv::BfvParams back = bfv::deserialize_params(reader);
  EXPECT_EQ(back.n, f.params.n);
  EXPECT_EQ(back.q, f.params.q);
  EXPECT_EQ(back.t, f.params.t);
}

TEST(Serialization, PlaintextRoundTrip) {
  Fixture f(2);
  std::vector<hemath::i64> values(f.params.n);
  std::mt19937_64 rng(derive_stream_seed(kBaseSeed, 0x10));
  std::uniform_int_distribution<hemath::i64> dist(-100, 100);
  for (auto& v : values) v = dist(rng);
  const bfv::Plaintext pt = f.ctx.encode_signed(values);

  const Bytes bytes = bfv::serialize(f.params, pt);
  const bfv::Plaintext back = bfv::deserialize_plaintext(f.ctx, bytes);
  EXPECT_EQ(back.poly.coeffs(), pt.poly.coeffs());
  EXPECT_EQ(f.ctx.decode_signed(back), values);
}

TEST(Serialization, CiphertextRoundTripAndDecrypts) {
  Fixture f(3);
  const bfv::Plaintext pt = f.ctx.encode_signed({1, -2, 3, -4, 5});
  bfv::Encryptor enc(f.ctx, f.sampler);
  const bfv::Ciphertext ct = enc.encrypt(pt, f.ppk);

  const Bytes bytes = bfv::serialize(f.params, ct);
  const bfv::Ciphertext back = bfv::deserialize_ciphertext(f.ctx, bytes);
  EXPECT_EQ(back.c0.coeffs(), ct.c0.coeffs());
  EXPECT_EQ(back.c1.coeffs(), ct.c1.coeffs());

  bfv::Decryptor dec(f.ctx, f.sk);
  EXPECT_EQ(dec.decrypt(back).poly.coeffs(), dec.decrypt(ct).poly.coeffs());
}

TEST(Serialization, SecretKeyRoundTrip) {
  Fixture f(4);
  const Bytes bytes = bfv::serialize(f.params, f.sk);
  const bfv::SecretKey back = bfv::deserialize_secret_key(f.ctx, bytes);
  EXPECT_EQ(back.s.coeffs(), f.sk.s.coeffs());
}

TEST(Serialization, PublicKeyRoundTrip) {
  Fixture f(5);
  const Bytes bytes = bfv::serialize(f.params, f.pk);
  const bfv::PublicKey back = bfv::deserialize_public_key(f.ctx, bytes);
  EXPECT_EQ(back.p0.coeffs(), f.pk.p0.coeffs());
  EXPECT_EQ(back.p1.coeffs(), f.pk.p1.coeffs());
}

// --- Rejection: truncation at every prefix length must throw, never decode.

TEST(Serialization, TruncatedCiphertextRejectedAtEveryLength) {
  Fixture f(7, /*n=*/64);
  bfv::Encryptor enc(f.ctx, f.sampler);
  const bfv::Ciphertext ct = enc.encrypt(f.ctx.encode_signed({9, 8, 7}), f.ppk);
  const Bytes bytes = bfv::serialize(f.params, ct);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const Bytes truncated(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, truncated), std::runtime_error)
        << "prefix of length " << len << " decoded without error";
  }
}

// --- Rejection: header corruption (bad magic / wrong tag / foreign params).

TEST(Serialization, CorruptedMagicRejected) {
  Fixture f(9, /*n=*/64);
  Bytes bytes = bfv::serialize(f.params, f.ctx.encode_signed({1, 2, 3}));
  bytes[0] ^= 0xff;
  EXPECT_THROW(bfv::deserialize_plaintext(f.ctx, bytes), std::runtime_error);
}

TEST(Serialization, WrongTypeTagRejected) {
  Fixture f(10, /*n=*/64);
  const Bytes pt_bytes = bfv::serialize(f.params, f.ctx.encode_signed({1, 2, 3}));
  // A plaintext buffer handed to the ciphertext loader must be refused by
  // the type tag, not mis-decoded.
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, pt_bytes), std::runtime_error);

  // Tag 6 (key-switch keys) is retired: every loader refuses it outright.
  Bytes retired = bfv::serialize(f.params, f.pk);
  retired[8] = 6;  // the tag byte follows the 8-byte magic
  EXPECT_THROW(bfv::deserialize_plaintext(f.ctx, retired), bfv::SerializationError);
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, retired), bfv::SerializationError);
  EXPECT_THROW(bfv::deserialize_secret_key(f.ctx, retired), bfv::SerializationError);
  EXPECT_THROW(bfv::deserialize_public_key(f.ctx, retired), bfv::SerializationError);
  bfv::ByteReader reader(retired);
  EXPECT_THROW(bfv::deserialize_params(reader), bfv::SerializationError);
}

TEST(Serialization, ForeignParamsRejected) {
  Fixture f(11, /*n=*/64);
  Fixture other(12, /*n=*/128);
  bfv::Encryptor enc(f.ctx, f.sampler);
  const Bytes bytes = bfv::serialize(f.params, enc.encrypt(f.ctx.encode_signed({5}), f.ppk));
  EXPECT_THROW(bfv::deserialize_ciphertext(other.ctx, bytes), std::runtime_error);
}

TEST(Serialization, TrailingGarbageRejected) {
  Fixture f(13, /*n=*/64);
  Bytes bytes = bfv::serialize(f.params, f.ctx.encode_signed({1}));
  bytes.push_back(0xab);
  EXPECT_THROW(bfv::deserialize_plaintext(f.ctx, bytes), std::runtime_error);
}

// One ciphertext buffer, four corruptions: truncation, bad magic, a
// plaintext fed to the ciphertext loader, and an out-of-range coefficient.
TEST(Serialization, RejectsCorruption) {
  Fixture f(19, /*n=*/64);
  bfv::Encryptor enc(f.ctx, f.sampler);
  const Bytes bytes = bfv::serialize(f.params, enc.encrypt(f.ctx.encode_signed({1, 2, 3}), f.ppk));

  const Bytes truncated(bytes.begin(), bytes.begin() + bytes.size() / 2);
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, truncated), std::runtime_error);

  Bytes bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, bad_magic), std::runtime_error);

  const Bytes pt_bytes = bfv::serialize(f.params, f.ctx.encode_signed({4}));
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, pt_bytes), std::runtime_error);

  // Header (magic 8 + tag 1 + n/t/q 24 = 33 bytes), then c0's modulus and
  // degree (16 bytes), then its first coefficient, forged to 2^64 - 1 >= q.
  Bytes out_of_range = bytes;
  for (std::size_t i = 0; i < 8; ++i) out_of_range[33 + 16 + i] = 0xff;
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, out_of_range), std::runtime_error);
}

// Fuzz-adjacent: random single-byte corruption must either throw or decode
// to a DIFFERENT object (silent identical decode would mean the byte is
// dead weight — acceptable — but a crash/UB would be caught by sanitizers).
TEST(Serialization, RandomByteCorruptionNeverCrashes) {
  Fixture f(14, /*n=*/64);
  bfv::Encryptor enc(f.ctx, f.sampler);
  const bfv::Ciphertext ct = enc.encrypt(f.ctx.encode_signed({3, 1, 4, 1, 5}), f.ppk);
  const Bytes bytes = bfv::serialize(f.params, ct);

  std::mt19937_64 rng(derive_stream_seed(kBaseSeed, 0x20));
  std::uniform_int_distribution<std::size_t> pos_dist(0, bytes.size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupted = bytes;
    corrupted[pos_dist(rng)] ^= static_cast<std::uint8_t>(1u << bit_dist(rng));
    try {
      const bfv::Ciphertext back = bfv::deserialize_ciphertext(f.ctx, corrupted);
      // Decoded: fine, as long as the coefficients stay in range.
      for (const auto c : back.c0.coeffs()) EXPECT_LT(c, f.params.q);
      for (const auto c : back.c1.coeffs()) EXPECT_LT(c, f.params.q);
    } catch (const std::runtime_error&) {
      // Rejected: the expected outcome for header/size corruption.
    }
  }
}

// --- Typed errors: every rejection is a SerializationError -----------------
//
// The wire layer (src/wire) routes loader failures by type; a loader that
// throws a bare std::runtime_error (or worse, std::bad_alloc from an
// attacker-sized allocation) would be misclassified as an internal error
// instead of a rejected frame.

TEST(Serialization, RejectionsThrowTypedSerializationError) {
  Fixture f(15, /*n=*/64);
  bfv::Encryptor enc(f.ctx, f.sampler);
  const Bytes good = bfv::serialize(f.params, enc.encrypt(f.ctx.encode_signed({7}), f.ppk));

  // Truncation.
  const Bytes truncated(good.begin(), good.begin() + good.size() / 2);
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, truncated), bfv::SerializationError);
  // Bad magic.
  Bytes bad_magic = good;
  bad_magic[3] ^= 0x40;
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, bad_magic), bfv::SerializationError);
  // Trailing garbage.
  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, trailing), bfv::SerializationError);
  // Compatibility: the typed error still lands in pre-existing
  // std::runtime_error catch sites.
  try {
    bfv::deserialize_ciphertext(f.ctx, truncated);
    FAIL() << "truncated buffer decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_FALSE(std::string(e.what()).empty());
  }
}

TEST(Serialization, ForgedDegreeRejectedBeforeAllocation) {
  Fixture f(16, /*n=*/64);
  bfv::Encryptor enc(f.ctx, f.sampler);
  Bytes bytes = bfv::serialize(f.params, enc.encrypt(f.ctx.encode_signed({1, 2}), f.ppk));

  // Layout: header (magic 8 + tag 1 + n/t/q 24 = 33 bytes), then c0 as
  // modulus u64 at 33 and degree u64 at 41. Forge degree = 2^60: the loader
  // must reject on degree-vs-remaining (a typed error) without first
  // allocating the 2^63-byte coefficient vector the header promises.
  const std::size_t degree_off = 33 + 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[degree_off + i] = 0;
  bytes[degree_off + 7] = 0x10;  // 2^60, little-endian
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, bytes), bfv::SerializationError);

  // Just past the hard cap but "covered" by the (short) buffer: also typed.
  for (std::size_t i = 0; i < 8; ++i) bytes[degree_off + i] = 0;
  bytes[degree_off + 2] = 0x20;  // 2^21 > kMaxPolyDegree
  EXPECT_THROW(bfv::deserialize_ciphertext(f.ctx, bytes), bfv::SerializationError);
}

// Adversarial header fuzz: splat hostile u64 patterns over every 8-byte
// window of a genuine buffer and replay through every loader. The contract
// is crash-freedom and bounded allocation, not rejection — some mutations
// leave the object valid.
TEST(Serialization, AdversarialHeaderFuzzNeverCrashesAnyLoader) {
  Fixture f(17, /*n=*/64);
  bfv::Encryptor enc(f.ctx, f.sampler);
  const Bytes base = bfv::serialize(f.params, enc.encrypt(f.ctx.encode_signed({6, 6, 6}), f.ppk));

  constexpr std::uint64_t kHostile[] = {
      0,
      1,
      0xffffffffffffffffULL,
      std::uint64_t{1} << 60,            // allocation bomb if honored
      std::uint64_t{1} << 63,            // sign-flip if narrowed to i64
      (std::uint64_t{1} << 20) + 1,      // just past kMaxPolyDegree
      0x464C415348424656ULL,             // the magic itself, misplaced
  };
  std::size_t rejected = 0, decoded = 0;
  for (std::size_t off = 0; off + 8 <= base.size(); ++off) {
    for (const std::uint64_t v : kHostile) {
      Bytes mutated = base;
      for (std::size_t i = 0; i < 8; ++i) {
        mutated[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
      try {
        const bfv::Ciphertext back = bfv::deserialize_ciphertext(f.ctx, mutated);
        for (const auto c : back.c0.coeffs()) ASSERT_LT(c, f.params.q);
        for (const auto c : back.c1.coeffs()) ASSERT_LT(c, f.params.q);
        ++decoded;
      } catch (const bfv::SerializationError&) {
        ++rejected;
      }
      // The same bytes through the param-less reader entry point.
      try {
        bfv::ByteReader r(mutated);
        (void)bfv::deserialize_params(r);
      } catch (const bfv::SerializationError&) {
      }
    }
  }
  // Sanity: the loop exercised real rejections (a no-op fuzzer proves
  // nothing). Decodes may be zero — every window of a ciphertext buffer is
  // load-bearing for this parameter set.
  EXPECT_GT(rejected, decoded);
  EXPECT_GT(rejected, 0u);
}

// --- Committed corpus replay ------------------------------------------------

Bytes parse_hex(const std::string& hex) {
  Bytes out;
  if (hex == ".") return out;  // explicit empty-buffer marker
  EXPECT_EQ(hex.size() % 2, 0u) << "odd-length hex in corpus: " << hex;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Every committed adversarial buffer, through every loader: throws the typed
// error or decodes cleanly — crashes and allocation bombs caught here (and
// by the sanitizer jobs, which run this same test under ASan/TSan).
TEST(Serialization, CorpusReplayAllLoadersSurvive) {
  const std::string path = std::string(FLASH_TESTS_DIR) + "/corpus/serialization_adversarial.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing corpus file: " << path;

  Fixture f(18, /*n=*/64);
  std::size_t entries = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    if (name.empty()) continue;
    const Bytes bytes = parse_hex(hex);
    ++entries;

    const auto survive = [&](auto&& loader) {
      try {
        loader();
      } catch (const bfv::SerializationError&) {
        // The expected outcome for adversarial input.
      }
      // Anything else (bad_alloc, logic_error, a crash) fails the test.
    };
    survive([&] { (void)bfv::deserialize_plaintext(f.ctx, bytes); });
    survive([&] { (void)bfv::deserialize_ciphertext(f.ctx, bytes); });
    survive([&] { (void)bfv::deserialize_secret_key(f.ctx, bytes); });
    survive([&] { (void)bfv::deserialize_public_key(f.ctx, bytes); });
    survive([&] {
      bfv::ByteReader r(bytes);
      (void)bfv::deserialize_params(r);
    });
  }
  EXPECT_GE(entries, 10u) << "corpus unexpectedly small — parsing bug?";
}

}  // namespace
}  // namespace flash
