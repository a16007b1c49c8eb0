#include "net/wire.hpp"

#include <array>
#include <cstring>

namespace asnap::net::wire {

namespace {

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::nullopt_t fail(DecodeError* error, DecodeError why) {
  if (error != nullptr) *error = why;
  return std::nullopt;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// The value section of a batch frame: the packed entry list.
Bytes encode_entries(const std::vector<Entry>& entries) {
  std::size_t len = 4;
  for (const Entry& e : entries) len += kEntryHeaderBytes + e.value.size();
  Bytes out;
  out.reserve(len);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    put_u64(out, e.reg);
    put_u64(out, e.ts);
    put_u16(out, e.flags);
    put_u32(out, static_cast<std::uint32_t>(e.value.size()));
    out.insert(out.end(), e.value.begin(), e.value.end());
  }
  return out;
}

/// Parse a batch frame's value section [p, p + len) into `out`. Checks
/// every length against the bytes left before touching them.
DecodeError decode_entries(const std::uint8_t* p, std::size_t len,
                           std::vector<Entry>& out) {
  if (len < 4) return DecodeError::kBatchTruncated;
  const std::uint32_t count = get_u32(p);
  if (count > kMaxBatchEntries) return DecodeError::kBatchTooLarge;
  std::size_t left = len - 4;
  if (static_cast<std::size_t>(count) * kEntryHeaderBytes > left) {
    return DecodeError::kBatchCountOverrun;
  }
  p += 4;
  out.resize(count);
  for (Entry& e : out) {
    if (left < kEntryHeaderBytes) return DecodeError::kBatchTruncated;
    e.reg = get_u64(p);
    e.ts = get_u64(p + 8);
    e.flags = static_cast<std::uint16_t>(
        p[16] | (static_cast<std::uint16_t>(p[17]) << 8));
    const std::uint32_t value_len = get_u32(p + 18);
    p += kEntryHeaderBytes;
    left -= kEntryHeaderBytes;
    if (value_len > left) return DecodeError::kBatchTruncated;
    e.value.assign(p, p + value_len);
    p += value_len;
    left -= value_len;
  }
  return left == 0 ? DecodeError::kNone : DecodeError::kLengthMismatch;
}

}  // namespace

Bytes encode(const Frame& frame) {
  const Bytes packed =
      is_batch(frame) ? encode_entries(frame.entries) : Bytes{};
  const Bytes& value = is_batch(frame) ? packed : frame.value;
  const std::uint32_t body_len =
      static_cast<std::uint32_t>(kHeaderBytes + value.size());
  Bytes out;
  out.reserve(4 + body_len);
  put_u32(out, body_len);
  put_u32(out, kMagic);
  out.push_back(frame.version);
  out.push_back(frame.type);
  // v1 frames have no flags field — those two bytes are reserved-zero.
  put_u16(out, frame.version >= 2 ? frame.flags : 0);
  put_u64(out, frame.from);
  put_u64(out, frame.rid);
  put_u64(out, frame.epoch);
  put_u64(out, frame.reg);
  put_u64(out, frame.ts);
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

const char* decode_error_name(DecodeError error) {
  switch (error) {
    case DecodeError::kNone: return "ok";
    case DecodeError::kShortHeader: return "frame shorter than the fixed header";
    case DecodeError::kOversized: return "frame exceeds kMaxBody";
    case DecodeError::kBadMagic: return "bad magic";
    case DecodeError::kBadVersion: return "unknown wire version";
    case DecodeError::kLengthMismatch:
      return "value length disagrees with frame length";
    case DecodeError::kBatchTruncated:
      return "batch entry runs past the frame";
    case DecodeError::kBatchCountOverrun:
      return "batch count exceeds the frame";
    case DecodeError::kBatchTooLarge: return "batch exceeds kMaxBatchEntries";
  }
  return "unknown decode error";
}

std::optional<Frame> decode(const std::uint8_t* body, std::size_t len,
                            DecodeError* error) {
  if (error != nullptr) *error = DecodeError::kNone;
  if (len < kHeaderBytes) return fail(error, DecodeError::kShortHeader);
  if (len > kMaxBody) return fail(error, DecodeError::kOversized);
  if (get_u32(body) != kMagic) return fail(error, DecodeError::kBadMagic);
  Frame f;
  f.version = body[4];
  if (f.version < kMinWireVersion || f.version > kWireVersion) {
    return fail(error, DecodeError::kBadVersion);
  }
  f.type = body[5];
  // body[6..7]: flags since v2; reserved (and required-zero by nobody) in
  // v1, where they decode as 0 = no flags — the conservative meaning.
  f.flags = f.version >= 2
                ? static_cast<std::uint16_t>(
                      body[6] | (static_cast<std::uint16_t>(body[7]) << 8))
                : 0;
  f.from = get_u64(body + 8);
  f.rid = get_u64(body + 16);
  f.epoch = get_u64(body + 24);
  f.reg = get_u64(body + 32);
  f.ts = get_u64(body + 40);
  const std::uint32_t value_len = get_u32(body + 48);
  if (kHeaderBytes + static_cast<std::size_t>(value_len) != len) {
    return fail(error, DecodeError::kLengthMismatch);
  }
  if (is_batch(f)) {
    const DecodeError why =
        decode_entries(body + kHeaderBytes, value_len, f.entries);
    if (why != DecodeError::kNone) return fail(error, why);
    return f;
  }
  f.value.assign(body + kHeaderBytes, body + kHeaderBytes + value_len);
  return f;
}

std::optional<Frame> decode(const std::uint8_t* body, std::size_t len,
                            std::string* error) {
  DecodeError why = DecodeError::kNone;
  auto frame = decode(body, len, &why);
  if (!frame.has_value() && error != nullptr) {
    *error = decode_error_name(why);
  }
  return frame;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  const auto& table = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes encode_tag(const lin::Tag& tag) {
  Bytes out;
  out.reserve(12);
  put_u32(out, tag.writer);
  put_u64(out, tag.seq);
  return out;
}

std::optional<lin::Tag> decode_tag(const Bytes& bytes) {
  if (bytes.size() != 12) return std::nullopt;
  lin::Tag tag;
  tag.writer = static_cast<ProcessId>(get_u32(bytes.data()));
  tag.seq = get_u64(bytes.data() + 4);
  return tag;
}

Bytes encode_u64(std::uint64_t v) {
  Bytes out;
  out.reserve(8);
  put_u64(out, v);
  return out;
}

std::optional<std::uint64_t> decode_u64(const Bytes& bytes) {
  if (bytes.size() != 8) return std::nullopt;
  return get_u64(bytes.data());
}

}  // namespace asnap::net::wire
