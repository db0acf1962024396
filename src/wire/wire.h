#ifndef FLAY_WIRE_WIRE_H
#define FLAY_WIRE_WIRE_H

// Versioned, length-prefixed wire protocol for controller-daemon <-> device-
// agent links. This promotes the journal's runtime::Update text round-trip
// into a network format: every frame is
//
//   magic(u32) version(u16) type(u16) length(u32) checksum(u32) payload...
//
// little-endian, with checksum = FNV-1a/32 of the payload bytes. The decoder
// is incremental and treats a frame cut mid-header or mid-payload exactly
// like the WAL treats a torn journal tail: not an error, just "not written
// yet" (kNeedMore) — the sender died mid-write and the frame never happened.
// Everything structurally wrong — bad magic, unknown version, an oversized
// length prefix, a checksum mismatch — is a clean, sticky protocol error:
// the connection is poisoned, never re-synchronized, and never crashes the
// process however adversarial the bytes are.
//
// Payloads are built with bounds-checked Writer/Reader helpers (fixed-width
// little-endian ints, u32-length-prefixed strings), so a truncated or
// malformed payload surfaces as WireError, not as an out-of-bounds read.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace flay::wire {

constexpr uint32_t kMagic = 0x464C4159;  // "FLAY"
constexpr uint16_t kVersion = 3;
constexpr size_t kHeaderSize = 16;
/// Hard cap on one frame's payload; a length prefix beyond it is a protocol
/// error, never an allocation.
constexpr uint32_t kMaxPayload = 8u << 20;

/// Frame types of wire protocol version 3: exactly the messages `flayc
/// daemon` and `flayc agent` exchange. The agent speaks first (kHello);
/// every daemon->agent request has exactly one reply type. Values 7-10, 14
/// and 15 belonged to version 2's recover, checkpoint and bulk RPCs and are
/// not reused.
enum class FrameType : uint16_t {
  kHello = 1,          ///< agent -> daemon: name, program fingerprint, seed
  kHelloAck = 2,       ///< daemon -> agent: accepted or rejection detail
  kBatch = 3,          ///< daemon -> agent: firstSeq + update texts
  kAck = 4,            ///< agent -> daemon: cumulative counters up to a seq
  kDigestRequest = 5,  ///< daemon -> agent
  kDigestReply = 6,    ///< agent -> daemon: canonical state digest
  kError = 11,         ///< either direction: explicit, fatal protocol error
  kBye = 12,           ///< daemon -> agent: clean shutdown
  kByeAck = 13,
};

/// Error codes carried by kError frames.
enum : uint32_t {
  kErrBadFrame = 1,         ///< undecodable frame or unexpected type
  kErrBadUpdate = 2,        ///< update text failed schema-directed decode
  kErrDeviceFailed = 3,     ///< non-update exception; device state unknown
  kErrProgramMismatch = 4,  ///< hello fingerprint != daemon's program
};

/// Every structural protocol failure (truncated payload, bad frame, peer
/// error frame, dead socket) surfaces as WireError. It deliberately does NOT
/// derive from std::invalid_argument: the fleet's apply loop treats
/// invalid_argument as "engine rejected one update, keep going", while a
/// WireError means the link itself is broken.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// FNV-1a over `n` bytes, folded to 32 bits (the frame checksum).
uint32_t fnv1a32(const uint8_t* data, size_t n);

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// One encoded frame: header + payload, checksummed, ready to write.
/// Throws WireError if the payload exceeds kMaxPayload.
std::vector<uint8_t> encodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload);

/// Incremental frame decoder: feed() arbitrary byte chunks (a syscall's
/// worth at a time), then pull frames with next(). Decode errors are sticky:
/// a poisoned stream cannot be re-synchronized, because after a bad length
/// prefix every subsequent byte boundary is a guess.
class FrameDecoder {
 public:
  enum class Status { kFrame, kNeedMore, kError };

  void feed(const uint8_t* data, size_t n);
  Status next(Frame* out);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed by a complete frame. Non-zero at
  /// EOF means the peer died mid-frame (the torn tail).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  Status fail(const std::string& why);

  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// Bounds-checked payload builder: fixed-width little-endian integers and
/// u32-length-prefixed strings.
class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void str(std::string_view s);
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked payload reader; any read past the end (or a string whose
/// length prefix overruns the payload) throws WireError.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  std::string str();
  /// Trailing bytes after the last expected field are a protocol error —
  /// a decoder that silently ignores them would mask framing bugs.
  void expectEnd() const;

 private:
  const uint8_t* need(size_t n);

  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Messages (payload schemas). decode*() throws WireError on malformed input.
// ---------------------------------------------------------------------------

struct Hello {
  std::string deviceName;
  /// Program fingerprint: the daemon shards dispatch by this key, so an
  /// agent only ever receives updates for the program it actually runs.
  std::string programFingerprint;
  uint64_t seed = 0;
};

struct HelloAck {
  bool accepted = false;
  std::string detail;
};

struct Batch {
  uint64_t firstSeq = 0;
  std::vector<std::string> updates;  ///< runtime::Update::toString texts
};

/// Cumulative per-link counters, acknowledging everything up to `upToSeq`.
struct Ack {
  uint64_t upToSeq = 0;
  uint64_t applied = 0;
  uint64_t rejected = 0;
  uint64_t retries = 0;
  bool degraded = false;
  uint64_t committed = 0;
  uint64_t deviceVisible = 0;
};

struct DigestReply {
  std::string digest;
  bool degraded = false;
  uint64_t committed = 0;
  uint64_t deviceVisible = 0;
};

struct ErrorMsg {
  uint32_t code = 0;
  std::string detail;
};

std::vector<uint8_t> encode(const Hello& m);
std::vector<uint8_t> encode(const HelloAck& m);
std::vector<uint8_t> encode(const Batch& m);
std::vector<uint8_t> encode(const Ack& m);
std::vector<uint8_t> encode(const DigestReply& m);
std::vector<uint8_t> encode(const ErrorMsg& m);

Hello decodeHello(const std::vector<uint8_t>& p);
HelloAck decodeHelloAck(const std::vector<uint8_t>& p);
Batch decodeBatch(const std::vector<uint8_t>& p);
Ack decodeAck(const std::vector<uint8_t>& p);
DigestReply decodeDigestReply(const std::vector<uint8_t>& p);
ErrorMsg decodeErrorMsg(const std::vector<uint8_t>& p);

}  // namespace flay::wire

#endif  // FLAY_WIRE_WIRE_H
