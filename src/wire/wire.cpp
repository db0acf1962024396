#include "wire/wire.h"

#include <cstring>

namespace flay::wire {

namespace {

void putU16(std::vector<uint8_t>& b, uint16_t v) {
  b.push_back(static_cast<uint8_t>(v));
  b.push_back(static_cast<uint8_t>(v >> 8));
}

void putU32(std::vector<uint8_t>& b, uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t getU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t getU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t fnv1a32(const uint8_t* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

std::vector<uint8_t> encodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw WireError("frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the " + std::to_string(kMaxPayload) +
                    "-byte cap");
  }
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  putU32(out, kMagic);
  putU16(out, kVersion);
  putU16(out, static_cast<uint16_t>(type));
  putU32(out, static_cast<uint32_t>(payload.size()));
  putU32(out, fnv1a32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameDecoder::feed(const uint8_t* data, size_t n) {
  if (failed_) return;  // poisoned: drop everything
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Status FrameDecoder::fail(const std::string& why) {
  failed_ = true;
  error_ = why;
  buf_.clear();
  pos_ = 0;
  return Status::kError;
}

FrameDecoder::Status FrameDecoder::next(Frame* out) {
  if (failed_) return Status::kError;
  if (buffered() < kHeaderSize) {
    // Mid-header cut: the WAL's torn-tail rule — not yet written, keep the
    // prefix and wait. Compact so a long-lived link doesn't grow the buffer.
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return Status::kNeedMore;
  }
  const uint8_t* h = buf_.data() + pos_;
  if (getU32(h) != kMagic) return fail("bad frame magic");
  uint16_t version = getU16(h + 4);
  if (version != kVersion) {
    return fail("wire version " + std::to_string(version) +
                " unsupported (this end speaks " + std::to_string(kVersion) +
                ")");
  }
  uint16_t type = getU16(h + 6);
  uint32_t length = getU32(h + 8);
  uint32_t checksum = getU32(h + 12);
  if (length > kMaxPayload) {
    return fail("oversized length prefix (" + std::to_string(length) +
                " bytes)");
  }
  if (buffered() < kHeaderSize + length) {
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
      pos_ = 0;
    }
    return Status::kNeedMore;  // mid-payload cut: same torn-tail rule
  }
  const uint8_t* payload = h + kHeaderSize;
  if (fnv1a32(payload, length) != checksum) {
    return fail("frame checksum mismatch");
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(payload, payload + length);
  pos_ += kHeaderSize + length;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Status::kFrame;
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

void Writer::u16(uint16_t v) { putU16(buf_, v); }
void Writer::u32(uint32_t v) { putU32(buf_, v); }

void Writer::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::str(std::string_view s) {
  if (s.size() > kMaxPayload) {
    throw WireError("string field exceeds the frame payload cap");
  }
  u32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

const uint8_t* Reader::need(size_t n) {
  if (n > buf_.size() - pos_) {
    throw WireError("truncated payload: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(buf_.size() - pos_));
  }
  const uint8_t* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

uint8_t Reader::u8() { return *need(1); }
uint16_t Reader::u16() { return getU16(need(2)); }
uint32_t Reader::u32() { return getU32(need(4)); }

uint64_t Reader::u64() {
  const uint8_t* p = need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string Reader::str() {
  uint32_t n = u32();
  const uint8_t* p = need(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void Reader::expectEnd() const {
  if (pos_ != buf_.size()) {
    throw WireError("payload has " + std::to_string(buf_.size() - pos_) +
                    " trailing byte(s)");
  }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

std::vector<uint8_t> encode(const Hello& m) {
  Writer w;
  w.str(m.deviceName);
  w.str(m.programFingerprint);
  w.u64(m.seed);
  return w.take();
}

Hello decodeHello(const std::vector<uint8_t>& p) {
  Reader r(p);
  Hello m;
  m.deviceName = r.str();
  m.programFingerprint = r.str();
  m.seed = r.u64();
  r.expectEnd();
  return m;
}

std::vector<uint8_t> encode(const HelloAck& m) {
  Writer w;
  w.u8(m.accepted ? 1 : 0);
  w.str(m.detail);
  return w.take();
}

HelloAck decodeHelloAck(const std::vector<uint8_t>& p) {
  Reader r(p);
  HelloAck m;
  m.accepted = r.u8() != 0;
  m.detail = r.str();
  r.expectEnd();
  return m;
}

std::vector<uint8_t> encode(const Batch& m) {
  Writer w;
  w.u64(m.firstSeq);
  w.u32(static_cast<uint32_t>(m.updates.size()));
  for (const auto& u : m.updates) w.str(u);
  return w.take();
}

Batch decodeBatch(const std::vector<uint8_t>& p) {
  Reader r(p);
  Batch m;
  m.firstSeq = r.u64();
  uint32_t n = r.u32();
  // Each entry needs at least its 4-byte length prefix; reject counts the
  // payload cannot possibly hold before reserving anything.
  if (static_cast<uint64_t>(n) * 4 > p.size()) {
    throw WireError("batch count " + std::to_string(n) +
                    " exceeds the payload");
  }
  m.updates.reserve(n);
  for (uint32_t i = 0; i < n; ++i) m.updates.push_back(r.str());
  r.expectEnd();
  return m;
}

std::vector<uint8_t> encode(const Ack& m) {
  Writer w;
  w.u64(m.upToSeq);
  w.u64(m.applied);
  w.u64(m.rejected);
  w.u64(m.retries);
  w.u8(m.degraded ? 1 : 0);
  w.u64(m.committed);
  w.u64(m.deviceVisible);
  return w.take();
}

Ack decodeAck(const std::vector<uint8_t>& p) {
  Reader r(p);
  Ack m;
  m.upToSeq = r.u64();
  m.applied = r.u64();
  m.rejected = r.u64();
  m.retries = r.u64();
  m.degraded = r.u8() != 0;
  m.committed = r.u64();
  m.deviceVisible = r.u64();
  r.expectEnd();
  return m;
}

std::vector<uint8_t> encode(const DigestReply& m) {
  Writer w;
  w.str(m.digest);
  w.u8(m.degraded ? 1 : 0);
  w.u64(m.committed);
  w.u64(m.deviceVisible);
  return w.take();
}

DigestReply decodeDigestReply(const std::vector<uint8_t>& p) {
  Reader r(p);
  DigestReply m;
  m.digest = r.str();
  m.degraded = r.u8() != 0;
  m.committed = r.u64();
  m.deviceVisible = r.u64();
  r.expectEnd();
  return m;
}

std::vector<uint8_t> encode(const ErrorMsg& m) {
  Writer w;
  w.u32(m.code);
  w.str(m.detail);
  return w.take();
}

ErrorMsg decodeErrorMsg(const std::vector<uint8_t>& p) {
  Reader r(p);
  ErrorMsg m;
  m.code = r.u32();
  m.detail = r.str();
  r.expectEnd();
  return m;
}

}  // namespace flay::wire
