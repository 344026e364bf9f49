// Packed bit vector: the payload type for every simulated message.
//
// The communication models in this library account for bandwidth in *bits*,
// so messages are built by appending bit fields and consumed by a cursor
// reader. A BitVec knows its exact length in bits; the engines use that
// length to enforce per-edge / per-player bandwidth caps.
//
// Storage modes:
//  * owned    — the default; bits live in a std::vector and grow on demand.
//  * borrowed — bits live in caller-provided storage (typically an Arena,
//    util/arena.h) with a fixed bit capacity. The transport core builds its
//    per-round outboxes in borrowed mode so a round performs O(1) heap
//    allocations instead of O(n^2); exceeding the reserved capacity throws
//    ModelViolation, which doubles as eager bandwidth enforcement.
//
// Copying a BitVec always deep-copies into owned storage (a copy never
// aliases arena memory whose round may end); moving transfers the
// representation, borrowed or not. alias() makes an explicit shallow
// read-only view when zero-copy delivery is wanted.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cclique {

/// Growable vector of bits with exact bit-length accounting.
class BitVec {
 public:
  BitVec() = default;

  /// Constructs an all-zero owned vector of `nbits` bits.
  explicit BitVec(std::size_t nbits) : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  /// An empty borrowed writer over caller storage of `capacity_bits` bits.
  /// The storage must stay valid for the BitVec's lifetime; bits are
  /// zeroed lazily as they are appended.
  static BitVec borrow(std::uint64_t* storage, std::size_t capacity_bits) {
    BitVec v;
    v.ext_ = storage;
    v.cap_bits_ = capacity_bits;
    return v;
  }

  /// A shallow read-only view of `other`'s current contents (no copy). The
  /// view is full (at capacity), so appending to it throws. Valid only
  /// while `other`'s storage is.
  static BitVec alias(const BitVec& other) {
    BitVec v;
    v.ext_ = const_cast<std::uint64_t*>(other.word_data());
    v.cap_bits_ = other.nbits_;
    v.nbits_ = other.nbits_;
    return v;
  }

  BitVec(const BitVec& other)
      : nbits_(other.nbits_),
        words_(other.word_data(), other.word_data() + other.word_count()) {}

  BitVec& operator=(const BitVec& other) {
    if (this != &other) {
      words_.assign(other.word_data(), other.word_data() + other.word_count());
      nbits_ = other.nbits_;
      ext_ = nullptr;
      cap_bits_ = 0;
    }
    return *this;
  }

  BitVec(BitVec&& other) noexcept
      : nbits_(other.nbits_),
        words_(std::move(other.words_)),
        ext_(other.ext_),
        cap_bits_(other.cap_bits_) {
    other.nbits_ = 0;
    other.ext_ = nullptr;
    other.cap_bits_ = 0;
  }

  BitVec& operator=(BitVec&& other) noexcept {
    if (this != &other) {
      nbits_ = other.nbits_;
      words_ = std::move(other.words_);
      ext_ = other.ext_;
      cap_bits_ = other.cap_bits_;
      other.nbits_ = 0;
      other.ext_ = nullptr;
      other.cap_bits_ = 0;
    }
    return *this;
  }

  /// Number of bits held.
  std::size_t size_bits() const { return nbits_; }

  bool empty() const { return nbits_ == 0; }

  /// True when the bits live in caller-provided (arena) storage.
  bool borrowed() const { return ext_ != nullptr; }

  /// Drops the contents but keeps the storage mode and capacity, so a
  /// borrowed slot can be refilled round after round without reallocation.
  void clear() {
    nbits_ = 0;
    words_.clear();  // keeps vector capacity; appends re-zero on entry
  }

  /// Owned mode only: preallocates capacity for `nbits` bits.
  void reserve_bits(std::size_t nbits) {
    CC_REQUIRE(!borrowed(), "reserve_bits on a borrowed BitVec");
    words_.reserve((nbits + 63) / 64);
  }

  /// Reads the bit at `pos` (0-based). Requires pos < size_bits().
  bool get(std::size_t pos) const {
    CC_REQUIRE(pos < nbits_, "BitVec::get out of range");
    return (word_data()[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  /// Writes the bit at `pos`. Requires pos < size_bits().
  void set(std::size_t pos, bool value) {
    CC_REQUIRE(pos < nbits_, "BitVec::set out of range");
    const std::uint64_t mask = 1ULL << (pos & 63);
    if (value) {
      mutable_word_data()[pos >> 6] |= mask;
    } else {
      mutable_word_data()[pos >> 6] &= ~mask;
    }
  }

  /// Appends a single bit.
  void push_bit(bool value) {
    grow_for(1);
    if (value) mutable_word_data()[nbits_ >> 6] |= 1ULL << (nbits_ & 63);
    ++nbits_;
  }

  /// Appends the low `width` bits of `value`, least-significant first.
  /// width must be in [0, 64].
  void push_uint(std::uint64_t value, int width) {
    CC_REQUIRE(width >= 0 && width <= 64, "push_uint width out of range");
    if (width == 0) return;
    if (width < 64) value &= (1ULL << width) - 1;
    grow_for(static_cast<std::size_t>(width));
    std::uint64_t* w = mutable_word_data();
    const std::size_t word = nbits_ >> 6;
    const int off = static_cast<int>(nbits_ & 63);
    w[word] |= value << off;
    if (off + width > 64) w[word + 1] = value >> (64 - off);
    nbits_ += static_cast<std::size_t>(width);
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
    const std::uint64_t* w = word_data();
    const std::size_t word = pos >> 6;
    const int off = static_cast<int>(pos & 63);
    std::uint64_t out = w[word] >> off;
    if (off + width > 64) out |= w[word + 1] << (64 - off);
    if (width < 64) out &= (1ULL << width) - 1;
    return out;
  }

  bool operator==(const BitVec& other) const {
    if (nbits_ != other.nbits_) return false;
    const std::size_t full = nbits_ >> 6;
    const std::uint64_t* a = word_data();
    const std::uint64_t* b = other.word_data();
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
  const std::uint64_t* word_data() const { return ext_ != nullptr ? ext_ : words_.data(); }
  std::uint64_t* mutable_word_data() { return ext_ != nullptr ? ext_ : words_.data(); }
  std::size_t word_count() const { return (nbits_ + 63) / 64; }

  /// Makes room for `extra` more bits. Invariant maintained by all writers:
  /// in the word holding position nbits_, every bit at or above nbits_&63 is
  /// zero, so appends can OR into place. Owned mode zero-fills on resize;
  /// borrowed (arena) storage is uninitialized, so the word being entered at
  /// a 64-bit boundary is zeroed here.
  void grow_for(std::size_t extra) {
    if (extra == 0) return;
    if (ext_ != nullptr) {
      CC_MODEL(nbits_ + extra <= cap_bits_,
               "write past a borrowed message's reserved capacity (the "
               "engine reserves exactly the model's bandwidth cap)");
      if ((nbits_ & 63) == 0) ext_[nbits_ >> 6] = 0;
    } else {
      const std::size_t need_words = (nbits_ + extra + 63) / 64;
      if (words_.size() < need_words) words_.resize(need_words, 0);
    }
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;  ///< owned-mode storage
  std::uint64_t* ext_ = nullptr;      ///< borrowed-mode storage (not owned)
  std::size_t cap_bits_ = 0;          ///< borrowed-mode bit capacity
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
