// Packed bit vector: the payload type for every simulated message.
//
// The communication models in this library account for bandwidth in *bits*,
// so messages are built by appending bit fields and consumed by a cursor
// reader. A BitVec knows its exact length in bits; the engines use that
// length to enforce per-edge / per-player bandwidth caps.
//
// A BitVec always owns its bits (a std::vector of words that grows on
// demand). Copying deep-copies; moving hands the words over and leaves the
// source empty. clear() keeps the capacity, so the engines' outbox slots
// are refilled round after round without reallocating.
//
// Fields are packed least-significant bit first, so a w-bit field may
// straddle two words. push_words and read_words move a run of equal-width
// fields with one bounds check: they write and read exactly the bits of the
// matching push_uint and read_uint sequence, which is how the block-product
// codecs ship whole matrix row slices.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cclique {

/// Growable vector of bits with exact bit-length accounting.
class BitVec {
 public:
  BitVec() = default;

  /// Constructs an all-zero vector of `nbits` bits.
  explicit BitVec(std::size_t nbits) : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  BitVec(const BitVec&) = default;
  BitVec& operator=(const BitVec&) = default;

  BitVec(BitVec&& other) noexcept
      : nbits_(std::exchange(other.nbits_, 0)), words_(std::move(other.words_)) {}

  BitVec& operator=(BitVec&& other) noexcept {
    if (this != &other) {
      nbits_ = std::exchange(other.nbits_, 0);
      words_ = std::move(other.words_);
      other.words_.clear();
    }
    return *this;
  }

  /// Number of bits held.
  std::size_t size_bits() const { return nbits_; }

  bool empty() const { return nbits_ == 0; }

  /// Drops the contents but keeps the capacity, so a slot can be refilled
  /// round after round without reallocation.
  void clear() {
    nbits_ = 0;
    words_.clear();  // keeps vector capacity; appends re-zero on entry
  }

  /// Preallocates capacity for `nbits` bits.
  void reserve_bits(std::size_t nbits) { words_.reserve((nbits + 63) / 64); }

  /// Reads the bit at `pos` (0-based). Requires pos < size_bits().
  bool get(std::size_t pos) const {
    CC_REQUIRE(pos < nbits_, "BitVec::get out of range");
    return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  /// Writes the bit at `pos`. Requires pos < size_bits().
  void set(std::size_t pos, bool value) {
    CC_REQUIRE(pos < nbits_, "BitVec::set out of range");
    const std::uint64_t mask = 1ULL << (pos & 63);
    if (value) {
      words_[pos >> 6] |= mask;
    } else {
      words_[pos >> 6] &= ~mask;
    }
  }

  /// Appends a single bit.
  void push_bit(bool value) {
    grow_for(1);
    if (value) words_[nbits_ >> 6] |= 1ULL << (nbits_ & 63);
    ++nbits_;
  }

  /// Appends the low `width` bits of `value`, least-significant first.
  /// width must be in [0, 64].
  void push_uint(std::uint64_t value, int width) {
    CC_REQUIRE(width >= 0 && width <= 64, "push_uint width out of range");
    if (width == 0) return;
    if (width < 64) value &= (1ULL << width) - 1;
    grow_for(static_cast<std::size_t>(width));
    std::uint64_t* w = words_.data();
    const std::size_t word = nbits_ >> 6;
    const int off = static_cast<int>(nbits_ & 63);
    w[word] |= value << off;
    if (off + width > 64) w[word + 1] = value >> (64 - off);
    nbits_ += static_cast<std::size_t>(width);
  }

  /// Appends `count` fields of `width` bits, src[0] first: exactly the bits
  /// of push_uint(src[k], width) for k = 0, 1, ..., count - 1, so bits of a
  /// value above `width` are dropped. One bounds check and at most one
  /// reallocation for the whole run. width must be in [1, 64].
  void push_words(const std::uint64_t* src, std::size_t count, int width) {
    CC_REQUIRE(width >= 1 && width <= 64, "push_words width out of range");
    CC_REQUIRE(count <= (std::numeric_limits<std::size_t>::max() - nbits_) /
                            static_cast<std::size_t>(width),
               "push_words run too long");
    const std::uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
    grow_for(count * static_cast<std::size_t>(width));
    std::uint64_t* w = words_.data();
    std::size_t pos = nbits_;
    for (std::size_t k = 0; k < count; ++k, pos += static_cast<std::size_t>(width)) {
      const std::uint64_t value = src[k] & mask;
      const std::size_t word = pos >> 6;
      const int off = static_cast<int>(pos & 63);
      w[word] |= value << off;
      if (off + width > 64) w[word + 1] = value >> (64 - off);
    }
    nbits_ = pos;
  }

  /// Appends all bits of `other`.
  void append(const BitVec& other) { append_slice(other, 0, other.nbits_); }

  /// Appends `len` bits of `src` starting at bit `pos` (word-at-a-time; the
  /// hot path of chunked streams such as congest_c4's).
  void append_slice(const BitVec& src, std::size_t pos, std::size_t len) {
    CC_REQUIRE(pos + len <= src.nbits_, "append_slice out of range");
    std::size_t done = 0;
    while (done < len) {
      const int take = static_cast<int>(len - done < 64 ? len - done : 64);
      push_uint(src.read_uint(pos + done, take), take);
      done += static_cast<std::size_t>(take);
    }
  }

  /// Extracts `width` bits starting at `pos` as an integer
  /// (least-significant bit first, matching push_uint).
  std::uint64_t read_uint(std::size_t pos, int width) const {
    CC_REQUIRE(width >= 0 && width <= 64, "read_uint width out of range");
    CC_REQUIRE(pos + static_cast<std::size_t>(width) <= nbits_,
               "read_uint out of range");
    if (width == 0) return 0;
    const std::uint64_t* w = words_.data();
    const std::size_t word = pos >> 6;
    const int off = static_cast<int>(pos & 63);
    std::uint64_t out = w[word] >> off;
    if (off + width > 64) out |= w[word + 1] << (64 - off);
    if (width < 64) out &= (1ULL << width) - 1;
    return out;
  }

  /// Reads `count` fields of `width` bits starting at bit `pos` and hands
  /// each to fn(value) in order: exactly the values of read_uint(pos +
  /// k*width, width) for k = 0, 1, ..., count - 1, after one bounds check.
  /// width must be in [1, 64] and the run must end by size_bits().
  template <typename Fn>
  void read_words(std::size_t pos, std::size_t count, int width, Fn&& fn) const {
    CC_REQUIRE(width >= 1 && width <= 64, "read_words width out of range");
    CC_REQUIRE(pos <= nbits_ && count <= (nbits_ - pos) / static_cast<std::size_t>(width),
               "read_words out of range");
    const std::uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
    const std::uint64_t* w = words_.data();
    for (std::size_t k = 0; k < count; ++k, pos += static_cast<std::size_t>(width)) {
      const std::size_t word = pos >> 6;
      const int off = static_cast<int>(pos & 63);
      std::uint64_t out = w[word] >> off;
      if (off + width > 64) out |= w[word + 1] << (64 - off);
      fn(out & mask);
    }
  }

  bool operator==(const BitVec& other) const {
    if (nbits_ != other.nbits_) return false;
    const std::size_t full = nbits_ >> 6;
    const std::uint64_t* a = words_.data();
    const std::uint64_t* b = other.words_.data();
    for (std::size_t i = 0; i < full; ++i) {
      if (a[i] != b[i]) return false;
    }
    const int tail = static_cast<int>(nbits_ & 63);
    if (tail != 0) {
      const std::uint64_t mask = (1ULL << tail) - 1;
      if ((a[full] & mask) != (b[full] & mask)) return false;
    }
    return true;
  }
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  /// Human-readable 0/1 string, most recently appended bit last.
  std::string to_string() const {
    std::string s;
    s.reserve(nbits_);
    for (std::size_t i = 0; i < nbits_; ++i) s.push_back(get(i) ? '1' : '0');
    return s;
  }

 private:
  /// Makes room for `extra` more bits. Invariant maintained by all writers:
  /// in the word holding position nbits_, every bit at or above nbits_&63 is
  /// zero, so appends can OR into place; resize zero-fills the new words.
  void grow_for(std::size_t extra) {
    const std::size_t need_words = (nbits_ + extra + 63) / 64;
    if (words_.size() < need_words) words_.resize(need_words, 0);
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Sequential reader over a BitVec; tracks a cursor so protocol code can
/// decode structured messages field by field.
class BitReader {
 public:
  explicit BitReader(const BitVec& bits) : bits_(&bits) {}

  /// Bits not yet consumed.
  std::size_t remaining() const { return bits_->size_bits() - pos_; }

  bool read_bit() {
    CC_REQUIRE(remaining() >= 1, "BitReader exhausted");
    return bits_->get(pos_++);
  }

  std::uint64_t read_uint(int width) {
    std::uint64_t v = bits_->read_uint(pos_, width);
    pos_ += static_cast<std::size_t>(width);
    return v;
  }

 private:
  const BitVec* bits_;
  std::size_t pos_ = 0;
};

}  // namespace cclique
