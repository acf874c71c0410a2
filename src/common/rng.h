// Seed mixing shared by the library and the tools.
#pragma once

#include <cstdint>

namespace mfm::common {

/// The splitmix64 finalizer: a bijective 64-bit mix.  Used to derive
/// decorrelated seeds from (seed, index) pairs and to fold simulation
/// words into signatures.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace mfm::common
