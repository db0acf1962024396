#include "fleet/agent.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cstring>
#include <iterator>

#include "expr/canonical.h"
#include "p4/printer.h"
#include "runtime/device_config.h"

namespace flay::fleet {

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

namespace {

/// Waits longer than this on the agent fail the link.
constexpr int kTimeoutMs = 120000;
constexpr int kByeTimeoutMs = 5000;

/// Bounds every blocking read and write on `fd`: a call that waits longer
/// fails, and FrameChannel turns the failure into a WireError.
void setTimeouts(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0) {
    throw wire::WireError(std::string("setsockopt failed: ") +
                          std::strerror(errno));
  }
}

}  // namespace

AgentLink::AgentLink(wire::Fd fd, std::string label)
    : channel_(std::move(fd)), label_(std::move(label)) {
  setTimeouts(channel_.fd(), kTimeoutMs);
}

template <typename Body>
auto AgentLink::guarded(Body body) -> decltype(body()) {
  if (!alive()) throw wire::WireError(label_ + ": link is dead");
  try {
    return body();
  } catch (const wire::WireError& e) {
    channel_.close();
    throw wire::WireError(label_ + ": " + e.what());
  }
}

wire::Frame AgentLink::recv(wire::FrameType expect) {
  wire::Frame f;
  if (!channel_.recv(&f)) throw wire::WireError("agent closed the connection");
  if (f.type == wire::FrameType::kError) {
    wire::ErrorMsg e = wire::decodeErrorMsg(f.payload);
    throw wire::WireError("agent error " + std::to_string(e.code) + ": " +
                          e.detail);
  }
  if (f.type != expect) {
    throw wire::WireError("expected frame type " +
                          std::to_string(static_cast<int>(expect)) + ", got " +
                          std::to_string(static_cast<int>(f.type)));
  }
  return f;
}

void AgentLink::enqueue(std::string updateText) {
  pending_.push_back(std::move(updateText));
}

AgentLink::FlushDelta AgentLink::flush() {
  return guarded([&] {
    FlushDelta delta;
    const wire::Ack before = lastAck_;
    for (auto next = pending_.begin(); next != pending_.end();) {
      auto end = next + std::min<ptrdiff_t>(kBatchSize, pending_.end() - next);
      wire::Batch b;
      b.firstSeq = seq_ + 1;
      b.updates.assign(std::make_move_iterator(next),
                       std::make_move_iterator(end));
      channel_.send(wire::FrameType::kBatch, wire::encode(b));
      ++delta.batches;
      wire::Ack ack = wire::decodeAck(recv(wire::FrameType::kAck).payload);
      seq_ += b.updates.size();
      if (ack.upToSeq != seq_) {
        throw wire::WireError("ack out of order (upToSeq " +
                              std::to_string(ack.upToSeq) + ", expected " +
                              std::to_string(seq_) + ")");
      }
      lastAck_ = ack;
      next = end;
    }
    pending_.clear();
    delta.applied = lastAck_.applied - before.applied;
    delta.rejected = lastAck_.rejected - before.rejected;
    delta.retries = lastAck_.retries - before.retries;
    delta.degraded = lastAck_.degraded;
    delta.committed = lastAck_.committed;
    delta.deviceVisible = lastAck_.deviceVisible;
    return delta;
  });
}

wire::Hello AgentLink::handshake() {
  return guarded([&] {
    return wire::decodeHello(recv(wire::FrameType::kHello).payload);
  });
}

void AgentLink::accept() {
  guarded([&] {
    wire::HelloAck ack;
    ack.accepted = true;
    channel_.send(wire::FrameType::kHelloAck, wire::encode(ack));
  });
}

void AgentLink::reject(const std::string& why) {
  wire::HelloAck ack;
  ack.accepted = false;
  ack.detail = why;
  try {
    channel_.send(wire::FrameType::kHelloAck, wire::encode(ack));
  } catch (const wire::WireError&) {
    // Best-effort: the rejection itself closes the link either way.
  }
  channel_.close();
}

wire::DigestReply AgentLink::digest() {
  return guarded([&] {
    channel_.send(wire::FrameType::kDigestRequest, {});
    return wire::decodeDigestReply(
        recv(wire::FrameType::kDigestReply).payload);
  });
}

void AgentLink::bye() {
  if (!alive()) return;
  try {
    setTimeouts(channel_.fd(), kByeTimeoutMs);
    channel_.send(wire::FrameType::kBye, {});
    recv(wire::FrameType::kByeAck);
  } catch (const wire::WireError&) {
    // Best-effort shutdown: a dead agent cannot ack a goodbye.
  }
  channel_.close();
}

}  // namespace flay::fleet
