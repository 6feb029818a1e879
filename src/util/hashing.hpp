// Stateless splitmix64-based hashing, the determinism backbone.
//
// Every seeded decision in this codebase — fault injection sites, hashed
// membership sets, per-trial sub-seeds — is a pure function of
// (seed, site) through these finalizers. Statelessness is what makes the
// fault injector and the pipeline instance generators immune to
// iteration-order and thread-count effects. Originally private to
// src/faults/; promoted to util/ so the core pipeline registry can generate
// hashed instances without depending on the faults layer.
#pragma once

#include <cstdint>

namespace lad {

/// splitmix64 finalizer: the one-instruction-wide PRNG we key all seeded
/// decisions on.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t hash2(std::uint64_t a, std::uint64_t b) {
  return splitmix64(splitmix64(a) ^ (b + 0x9e3779b97f4a7c15ULL));
}

constexpr std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return hash2(hash2(a, b), c);
}

constexpr std::uint64_t hash4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                              std::uint64_t d) {
  return hash2(hash3(a, b, c), d);
}

/// A decision stream fixed by (seed, tag), keyed once:
/// s(x) == hash3(seed, tag, x) at one splitmix64 instead of four, and
/// s(x, y) == hash4(seed, tag, x, y) at three instead of six.
class HashStream {
 public:
  constexpr HashStream(std::uint64_t seed, std::uint64_t tag) : k_(key(hash2(seed, tag))) {}

  constexpr std::uint64_t operator()(std::uint64_t x) const { return at(k_, x); }
  constexpr std::uint64_t operator()(std::uint64_t x, std::uint64_t y) const {
    return at(key(at(k_, x)), y);
  }

 private:
  // hash2 in keyed form: hash2(a, b) == at(key(a), b), so a fixed first
  // argument is keyed once and each draw costs one splitmix64 (DESIGN.md §7.1).
  static constexpr std::uint64_t key(std::uint64_t a) { return splitmix64(a); }
  static constexpr std::uint64_t at(std::uint64_t k, std::uint64_t b) {
    return splitmix64(k ^ (b + 0x9e3779b97f4a7c15ULL));
  }

  std::uint64_t k_;
};

/// Uniform double in [0, 1) from a hash value.
constexpr double unit_from_hash(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
}

}  // namespace lad
