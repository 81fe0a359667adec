#include "protocol/secret_sharing.hpp"

#include <stdexcept>

namespace flash::protocol {

void share_into(std::span<const i64> values, u64 t, hemath::Sampler& sampler,
                std::span<i64> client, std::span<i64> server) {
  if (client.size() != values.size() || server.size() != values.size()) {
    throw std::invalid_argument("share_into: share buffers differ from the values in size");
  }
  // The shares lie in [0, t), so the client's draws go straight into its
  // i64 storage, read as the corresponding unsigned type.
  const std::span<u64> drawn(reinterpret_cast<u64*>(client.data()), client.size());
  sampler.uniform_into(t, drawn);
  for (std::size_t i = 0; i < values.size(); ++i) {
    server[i] = static_cast<i64>(hemath::sub_mod(hemath::from_signed(values[i], t), drawn[i], t));
  }
}

std::vector<i64> reconstruct(const std::vector<u64>& a, const std::vector<u64>& b, u64 t) {
  if (a.size() != b.size()) throw std::invalid_argument("reconstruct: size mismatch");
  std::vector<i64> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = hemath::to_signed(hemath::add_mod(a[i], b[i], t), t);
  }
  return out;
}

}  // namespace flash::protocol
