// Bit strings used as advice labels (Definition 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace lad {

/// A sequence of bits with self-delimiting integer codecs (Elias gamma),
/// used both as per-node advice labels and as the payload format of the
/// variable-length -> uniform-1-bit conversion.
class BitString {
 public:
  BitString() = default;

  /// Parses a string of '0'/'1' characters.
  static BitString parse(const std::string& s);

  /// Fixed-width big-endian encoding of value (0 <= value < 2^width).
  static BitString fixed_width(std::uint64_t value, int width);

  int size() const { return static_cast<int>(bits_.size()); }
  bool empty() const { return bits_.empty(); }
  bool bit(int i) const {
    LAD_ASSERT(i >= 0 && i < size());
    return bits_[static_cast<std::size_t>(i)] != 0;
  }

  void append(bool b) { bits_.push_back(b ? 1 : 0); }
  void append(const BitString& other);
  /// Sizes the storage for `count` bits, so appends up to that size do not
  /// reallocate.
  void reserve(int count) { bits_.reserve(static_cast<std::size_t>(count)); }

  /// Overwrites bit i (bounds-checked even in release builds: callers are
  /// typically fault injectors working on untrusted positions).
  void set_bit(int i, bool b) {
    LAD_CHECK(i >= 0 && i < size());
    bits_[static_cast<std::size_t>(i)] = b ? 1 : 0;
  }

  /// Keeps only the first `count` bits.
  void truncate(int count) {
    LAD_CHECK(count >= 0 && count <= size());
    bits_.resize(static_cast<std::size_t>(count));
  }

  /// Appends Elias gamma code of value >= 1 (self-delimiting).
  void append_gamma(std::uint64_t value);

  /// Reads bits [pos, pos+width) as a big-endian integer, advancing pos.
  std::uint64_t read_fixed(int& pos, int width) const;

  /// Reads an Elias gamma code at pos, advancing pos.
  std::uint64_t read_gamma(int& pos) const;

  bool operator==(const BitString& other) const { return bits_ == other.bits_; }

  std::string to_string() const;

 private:
  std::vector<std::uint8_t> bits_;
};

}  // namespace lad
