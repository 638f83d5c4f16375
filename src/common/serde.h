#ifndef STREAMLIB_COMMON_SERDE_H_
#define STREAMLIB_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace streamlib {

/// \file serde.h
/// Minimal binary serialization used for sketch snapshots (Lambda batch
/// views), checkpointing in the platform layer, and tuple payloads.
/// Little-endian fixed-width integers plus LEB128 varints.

/// Appends binary fields to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Pre-sizes the buffer (also keeps GCC 12's stringop-overflow analysis
  /// from flagging the first small fixed-width append as an overflow).
  void Reserve(size_t n) { buf_.reserve(n); }

  /// Drops the contents but keeps the capacity — lets a thread-local
  /// scratch writer serve a hot path without per-call allocation.
  void Clear() { buf_.clear(); }

  void PutU8(uint8_t v) { buf_.push_back(v); }

  void PutU16(uint16_t v) { PutFixed(&v, sizeof(v)); }

  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }

  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }

  /// Unsigned LEB128 varint.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Zigzag-mapped signed varint (small magnitudes stay short).
  void PutVarintSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }

  /// Raw bytes (caller provides length framing).
  void PutBytes(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutFixed(const void* v, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(v);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<uint8_t> buf_;
};

/// Reads binary fields back; every getter reports truncation via Status.
class ByteReader {
 public:
  ByteReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}

  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Status GetU8(uint8_t* out) { return GetFixed(out, sizeof(*out)); }
  Status GetU16(uint16_t* out) { return GetFixed(out, sizeof(*out)); }
  Status GetU32(uint32_t* out) { return GetFixed(out, sizeof(*out)); }
  Status GetU64(uint64_t* out) { return GetFixed(out, sizeof(*out)); }
  Status GetI64(int64_t* out) {
    uint64_t u = 0;  // GCC -O1 can't see GetU64's success path assigns it.
    STREAMLIB_RETURN_NOT_OK(GetU64(&u));
    *out = static_cast<int64_t>(u);
    return Status::OK();
  }
  Status GetDouble(double* out) { return GetFixed(out, sizeof(*out)); }

  /// Accepts only what PutVarint writes: the shortest encoding of a value
  /// that fits 64 bits. Padded forms (0x80 0x00) and bits past the 64th
  /// are Corruption, so a decoder built on it gives each value one
  /// encoding.
  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ >= len_) return Status::Corruption("varint: truncated buffer");
      const uint8_t b = data_[pos_++];
      if (shift == 63 && b > 1) {
        return Status::Corruption("varint: value exceeds 64 bits");
      }
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift > 0) {
          return Status::Corruption("varint: overlong encoding");
        }
        *out = v;
        return Status::OK();
      }
    }
  }

  Status GetVarintSigned(int64_t* out) {
    uint64_t z = 0;
    STREAMLIB_RETURN_NOT_OK(GetVarint(&z));
    *out = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
    return Status::OK();
  }

  Status GetString(std::string* out) {
    uint64_t n = 0;  // see GetI64: GCC can't see GetVarint's success path

    STREAMLIB_RETURN_NOT_OK(GetVarint(&n));
    // Compared against what is left: `pos_ + n` wraps for a length near
    // 2^64.
    if (n > len_ - pos_) return Status::Corruption("string: truncated buffer");
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  Status GetBytes(void* out, size_t n) { return GetFixed(out, n); }

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  Status GetFixed(void* out, size_t n) {
    if (n > len_ - pos_) return Status::Corruption("fixed: truncated buffer");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace streamlib

#endif  // STREAMLIB_COMMON_SERDE_H_
