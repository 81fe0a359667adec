// Arithmetic secret sharing over Z_t (paper §II-B).
//
// An l-bit value x is held as x = {x}^C + {x}^S (mod t) with the client share
// uniformly random. The plaintext modulus of the BFV instance doubles as the
// sharing modulus, so shares embed directly into plaintext polynomials.
#pragma once

#include <span>
#include <vector>

#include "hemath/modular.hpp"
#include "hemath/sampler.hpp"

namespace flash::protocol {

using hemath::i64;
using hemath::u64;

/// Split signed values into additive shares mod t, written straight into
/// `client` and `server` (each values.size() long; every share lies in
/// [0, t)). The client shares are one sampler.uniform_into(t) and each
/// server share is x - client mod t, so the draws are the same whatever
/// buffers the caller hands in.
void share_into(std::span<const i64> values, u64 t, hemath::Sampler& sampler,
                std::span<i64> client, std::span<i64> server);

/// Recombine shares into centered signed values.
std::vector<i64> reconstruct(const std::vector<u64>& a, const std::vector<u64>& b, u64 t);

}  // namespace flash::protocol
