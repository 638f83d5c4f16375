// Byte-level surgery on SLFR recordings (recorder.h) for the decoder's
// negative tests: rewrite a records segment with a crafted payload and a
// recomputed CRC, so the reader's field checks — not the CRC — are what
// rejects it.

#ifndef STREAMLIB_TESTS_RECORDING_UTIL_H_
#define STREAMLIB_TESTS_RECORDING_UTIL_H_

#include <cstdint>
#include <vector>

#include "common/crc32.h"
#include "common/serde.h"

namespace streamlib::platform {

/// `file` with the payload of its first records segment (kind 2) replaced
/// by `payload`, the segment's length and CRC recomputed. Every other
/// byte is copied as it was.
inline std::vector<uint8_t> WithRecordsPayload(
    const std::vector<uint8_t>& file, const std::vector<uint8_t>& payload) {
  ByteReader r(file);
  uint32_t magic = 0;
  uint32_t version = 0;
  (void)r.GetU32(&magic);
  (void)r.GetU32(&version);
  ByteWriter out;
  out.PutU32(magic);
  out.PutU32(version);
  bool replaced = false;
  while (!r.AtEnd()) {
    uint8_t kind = 0;
    uint32_t len = 0;
    uint32_t crc = 0;
    (void)r.GetU8(&kind);
    (void)r.GetU32(&len);
    (void)r.GetU32(&crc);
    std::vector<uint8_t> body(len);
    (void)r.GetBytes(body.data(), len);
    if (kind == 2 && !replaced) {
      body = payload;
      crc = Crc32(body.data(), body.size());
      replaced = true;
    }
    out.PutU8(kind);
    out.PutU32(static_cast<uint32_t>(body.size()));
    out.PutU32(crc);
    out.PutBytes(body.data(), body.size());
  }
  return out.TakeBytes();
}

}  // namespace streamlib::platform

#endif  // STREAMLIB_TESTS_RECORDING_UTIL_H_
