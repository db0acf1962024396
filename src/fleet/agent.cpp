#include "fleet/agent.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "expr/canonical.h"
#include "p4/printer.h"
#include "runtime/device_config.h"

namespace flay::fleet {

namespace {

std::string errnoString() { return std::strerror(errno); }

}  // namespace

std::string programFingerprint(const p4::CheckedProgram& checked) {
  expr::Fnv h;
  h.mix(p4::printProgram(checked.program));
  return h.hex();
}

// ---------------------------------------------------------------------------
// AgentEndpoint
// ---------------------------------------------------------------------------

AgentEndpoint::AgentEndpoint(const p4::CheckedProgram& checked,
                             controller::FaultTolerantController& ctl,
                             wire::FrameChannel channel, std::string deviceName,
                             uint64_t seed)
    : checked_(checked),
      ctl_(ctl),
      channel_(std::move(channel)),
      name_(std::move(deviceName)),
      seed_(seed),
      fingerprint_(programFingerprint(checked)) {}

wire::Ack AgentEndpoint::currentAck(uint64_t upToSeq) const {
  wire::Ack ack;
  ack.upToSeq = upToSeq;
  ack.applied = stats_.applied;
  ack.rejected = stats_.rejected;
  ack.retries = stats_.retries;
  ack.degraded = ctl_.degraded();
  ack.committed = ctl_.committedUpdates();
  ack.deviceVisible = ctl_.deviceVisibleUpdates();
  return ack;
}

bool AgentEndpoint::protocolError(uint32_t code, const std::string& detail) {
  lastError_ = detail;
  try {
    wire::ErrorMsg e;
    e.code = code;
    e.detail = name_ + ": " + detail;
    channel_.send(wire::FrameType::kError, wire::encode(e));
  } catch (const wire::WireError&) {
    // The link is already gone; the caller still learns via `false`.
  }
  return false;
}

bool AgentEndpoint::handleBatch(const wire::Frame& f) {
  wire::Batch batch = wire::decodeBatch(f.payload);
  if (batch.updates.empty()) {
    return protocolError(wire::kErrBadFrame, "empty batch frame");
  }
  for (const std::string& text : batch.updates) {
    runtime::Update u;
    try {
      u = runtime::Update::fromString(checked_, text);
    } catch (const std::invalid_argument& e) {
      // An undecodable update is fatal: the two ends disagree about the
      // schema (or the stream is corrupt), and seq accounting can no longer
      // be trusted.
      return protocolError(wire::kErrBadUpdate,
                           std::string("undecodable update: ") + e.what());
    }
    try {
      controller::ApplyResult r = ctl_.apply(u);
      stats_.retries += r.retries;
      ++stats_.applied;
    } catch (const std::invalid_argument&) {
      // Engine rejected this one update; the link stays healthy.
      ++stats_.rejected;
    }
  }
  ++stats_.batches;
  uint64_t upToSeq = batch.firstSeq + batch.updates.size() - 1;
  channel_.send(wire::FrameType::kAck, wire::encode(currentAck(upToSeq)));
  return true;
}

bool AgentEndpoint::serve() {
  try {
    wire::Hello hello;
    hello.deviceName = name_;
    hello.programFingerprint = fingerprint_;
    hello.seed = seed_;
    channel_.send(wire::FrameType::kHello, wire::encode(hello));

    wire::Frame f;
    if (!channel_.recv(&f)) {
      lastError_ = "daemon closed the connection before HelloAck";
      return false;
    }
    if (f.type != wire::FrameType::kHelloAck) {
      return protocolError(wire::kErrBadFrame,
                           "expected HelloAck, got frame type " +
                               std::to_string(static_cast<int>(f.type)));
    }
    wire::HelloAck ack = wire::decodeHelloAck(f.payload);
    if (!ack.accepted) {
      lastError_ = "daemon rejected hello: " + ack.detail;
      return false;
    }

    while (channel_.recv(&f)) {
      switch (f.type) {
        case wire::FrameType::kBatch:
          if (!handleBatch(f)) return false;
          break;
        case wire::FrameType::kDigestRequest: {
          wire::DigestReply reply;
          reply.digest = ctl_.stateDigest();
          reply.degraded = ctl_.degraded();
          reply.committed = ctl_.committedUpdates();
          reply.deviceVisible = ctl_.deviceVisibleUpdates();
          channel_.send(wire::FrameType::kDigestReply, wire::encode(reply));
          break;
        }
        case wire::FrameType::kBye:
          channel_.send(wire::FrameType::kByeAck, {});
          return true;
        case wire::FrameType::kError: {
          wire::ErrorMsg e = wire::decodeErrorMsg(f.payload);
          lastError_ = "daemon error: " + e.detail;
          return false;
        }
        default:
          return protocolError(wire::kErrBadFrame,
                               "unexpected frame type " +
                                   std::to_string(static_cast<int>(f.type)));
      }
    }
    // EOF without kBye: the daemon died or dropped us mid-stream. Anything
    // unacknowledged was never committed here — exactly the torn-tail
    // contract — so this is a clean stop, not a failure.
    return true;
  } catch (const wire::WireError& e) {
    return protocolError(wire::kErrBadFrame, e.what());
  } catch (const std::exception& e) {
    // Non-update exception out of the controller: the device's state is
    // unknown; tell the daemon so it can quarantine this member.
    return protocolError(wire::kErrDeviceFailed, e.what());
  }
}

// ---------------------------------------------------------------------------
// AgentLink
// ---------------------------------------------------------------------------

AgentLink::AgentLink(wire::Fd fd, std::string label, size_t batchSize,
                     size_t windowBatches)
    : fd_(std::move(fd)),
      label_(std::move(label)),
      batchSize_(batchSize == 0 ? 1 : batchSize),
      windowBatches_(windowBatches == 0 ? 1 : windowBatches) {
  wire::setNonBlocking(fd_.get(), true);
}

AgentLink::~AgentLink() = default;

void AgentLink::die(const std::string& why) {
  dead_ = true;
  if (deathReason_.empty()) deathReason_ = why;
  fd_.reset();
  throw wire::WireError(label_ + ": " + why);
}

void AgentLink::enqueue(std::string updateText) {
  pending_.push_back(std::move(updateText));
  ++seq_;
}

void AgentLink::consume(const wire::Frame& f) {
  try {
    switch (f.type) {
      case wire::FrameType::kAck: {
        wire::Ack ack = wire::decodeAck(f.payload);
        if (ack.upToSeq <= ackedSeq_ || ack.upToSeq > seq_) {
          die("ack out of order (upToSeq " + std::to_string(ack.upToSeq) +
              ", acked " + std::to_string(ackedSeq_) + ", sent " +
              std::to_string(seq_) + ")");
        }
        ackedSeq_ = ack.upToSeq;
        lastAck_ = ack;
        sawAck_ = true;
        if (inFlight_ > 0) --inFlight_;
        break;
      }
      case wire::FrameType::kError: {
        wire::ErrorMsg e = wire::decodeErrorMsg(f.payload);
        die("agent error " + std::to_string(e.code) + ": " + e.detail);
        break;
      }
      default:
        die("unexpected frame type " +
            std::to_string(static_cast<int>(f.type)) + " during flush");
    }
  } catch (const wire::WireError&) {
    if (!dead_) die("undecodable reply frame");
    throw;
  }
}

void AgentLink::pumpRead(FlushDelta* delta) {
  uint8_t chunk[16384];
  for (;;) {
    ssize_t n = ::read(fd_.get(), chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      die("read failed: " + errnoString());
    }
    if (n == 0) die("agent closed the connection");
    if (delta != nullptr) delta->bytesIn += static_cast<uint64_t>(n);
    decoder_.feed(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof chunk) break;
  }
  wire::Frame f;
  for (;;) {
    auto st = decoder_.next(&f);
    if (st == wire::FrameDecoder::Status::kError) {
      die("bad frame from agent: " + decoder_.error());
    }
    if (st == wire::FrameDecoder::Status::kNeedMore) break;
    consume(f);
  }
}

AgentLink::FlushDelta AgentLink::flush() {
  FlushDelta delta;
  if (!alive()) {
    throw wire::WireError(label_ + ": link is dead (" + deathReason_ + ")");
  }
  if (pending_.empty()) return delta;

  wire::Ack before = lastAck_;
  uint64_t firstPendingSeq = seq_ - pending_.size() + 1;
  uint64_t target = seq_;
  size_t encodeIdx = 0;
  uint64_t nextSeq = firstPendingSeq;
  std::vector<uint8_t> out;
  size_t outOff = 0;

  while (ackedSeq_ < target) {
    // Encode the next batch lazily, only when the previous one fully left
    // the send buffer and the in-flight window has room.
    if (outOff == out.size() && encodeIdx < pending_.size() &&
        inFlight_ < windowBatches_) {
      size_t n = std::min(batchSize_, pending_.size() - encodeIdx);
      wire::Batch b;
      b.firstSeq = nextSeq;
      b.updates.assign(pending_.begin() + static_cast<ptrdiff_t>(encodeIdx),
                       pending_.begin() +
                           static_cast<ptrdiff_t>(encodeIdx + n));
      out = wire::encodeFrame(wire::FrameType::kBatch, wire::encode(b));
      outOff = 0;
      encodeIdx += n;
      nextSeq += n;
      ++inFlight_;
      ++delta.batches;
    }

    bool wantWrite = outOff < out.size();
    struct pollfd p;
    p.fd = fd_.get();
    p.events = static_cast<short>(POLLIN | (wantWrite ? POLLOUT : 0));
    p.revents = 0;
    int rc = ::poll(&p, 1, timeoutMs_);
    if (rc < 0) {
      if (errno == EINTR) continue;
      die("poll failed: " + errnoString());
    }
    if (rc == 0) die("flush timed out waiting for acks");
    if (p.revents & (POLLIN | POLLERR | POLLHUP)) {
      // Drain acks even while writes are still streaming: this is what
      // keeps a full socket buffer from deadlocking both ends.
      pumpRead(&delta);
    }
    if (wantWrite && (p.revents & POLLOUT)) {
      ssize_t w = ::send(fd_.get(), out.data() + outOff, out.size() - outOff,
                         MSG_NOSIGNAL);
      if (w < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          die("send failed: " + errnoString());
        }
      } else {
        outOff += static_cast<size_t>(w);
        delta.bytesOut += static_cast<uint64_t>(w);
      }
    }
  }

  pending_.clear();
  delta.applied = lastAck_.applied - before.applied;
  delta.rejected = lastAck_.rejected - before.rejected;
  delta.retries = lastAck_.retries - before.retries;
  delta.degraded = lastAck_.degraded;
  delta.committed = lastAck_.committed;
  delta.deviceVisible = lastAck_.deviceVisible;
  return delta;
}

wire::Frame AgentLink::waitFrame(wire::FrameType expect, int timeoutMs) {
  wire::Frame f;
  for (;;) {
    auto st = decoder_.next(&f);
    if (st == wire::FrameDecoder::Status::kError) {
      die("bad frame from agent: " + decoder_.error());
    }
    if (st == wire::FrameDecoder::Status::kFrame) {
      if (f.type == wire::FrameType::kError) {
        try {
          wire::ErrorMsg e = wire::decodeErrorMsg(f.payload);
          die("agent error " + std::to_string(e.code) + ": " + e.detail);
        } catch (const wire::WireError&) {
          if (!dead_) die("undecodable error frame");
          throw;
        }
      }
      if (f.type == wire::FrameType::kAck) {
        // A stale ack from an earlier pipeline can legally arrive before a
        // reply; fold it in and keep waiting.
        consume(f);
        continue;
      }
      if (f.type != expect) {
        die("expected frame type " +
            std::to_string(static_cast<int>(expect)) + ", got " +
            std::to_string(static_cast<int>(f.type)));
      }
      return f;
    }
    struct pollfd p;
    p.fd = fd_.get();
    p.events = POLLIN;
    p.revents = 0;
    int rc = ::poll(&p, 1, timeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      die("poll failed: " + errnoString());
    }
    if (rc == 0) die("timed out waiting for reply");
    uint8_t chunk[16384];
    ssize_t n = ::read(fd_.get(), chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      die("read failed: " + errnoString());
    }
    if (n == 0) die("agent closed the connection");
    decoder_.feed(chunk, static_cast<size_t>(n));
  }
}

void AgentLink::writeAllBlocking(const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = ::send(fd_.get(), bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (w >= 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd p;
      p.fd = fd_.get();
      p.events = POLLOUT;
      p.revents = 0;
      int rc = ::poll(&p, 1, timeoutMs_);
      if (rc < 0 && errno != EINTR) die("poll failed: " + errnoString());
      if (rc == 0) die("timed out writing to agent");
      continue;
    }
    die("send failed: " + errnoString());
  }
}

wire::Hello AgentLink::handshake() {
  if (!alive()) {
    throw wire::WireError(label_ + ": link is dead (" + deathReason_ + ")");
  }
  wire::Frame f = waitFrame(wire::FrameType::kHello, timeoutMs_);
  try {
    return wire::decodeHello(f.payload);
  } catch (const wire::WireError&) {
    if (!dead_) die("undecodable hello frame");
    throw;
  }
}

void AgentLink::accept() {
  wire::HelloAck ack;
  ack.accepted = true;
  writeAllBlocking(wire::encodeFrame(wire::FrameType::kHelloAck,
                                     wire::encode(ack)));
}

void AgentLink::reject(const std::string& why) {
  wire::HelloAck ack;
  ack.accepted = false;
  ack.detail = why;
  try {
    writeAllBlocking(wire::encodeFrame(wire::FrameType::kHelloAck,
                                       wire::encode(ack)));
  } catch (const wire::WireError&) {
    // Best-effort: the rejection itself closes the link either way.
  }
  dead_ = true;
  if (deathReason_.empty()) deathReason_ = "rejected: " + why;
  fd_.reset();
}

wire::DigestReply AgentLink::digest() {
  if (!alive()) {
    throw wire::WireError(label_ + ": link is dead (" + deathReason_ + ")");
  }
  writeAllBlocking(wire::encodeFrame(wire::FrameType::kDigestRequest, {}));
  wire::Frame f = waitFrame(wire::FrameType::kDigestReply, timeoutMs_);
  try {
    return wire::decodeDigestReply(f.payload);
  } catch (const wire::WireError&) {
    if (!dead_) die("undecodable digest reply");
    throw;
  }
}

void AgentLink::bye() {
  if (!alive()) {
    fd_.reset();
    return;
  }
  try {
    writeAllBlocking(wire::encodeFrame(wire::FrameType::kBye, {}));
    waitFrame(wire::FrameType::kByeAck, 5000);
  } catch (const wire::WireError&) {
    // Best-effort shutdown: a dead agent cannot ack a goodbye.
  }
  fd_.reset();
}

}  // namespace flay::fleet
