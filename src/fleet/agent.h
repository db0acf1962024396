#ifndef FLAY_FLEET_AGENT_H
#define FLAY_FLEET_AGENT_H

// The two halves of a controller-daemon <-> device-agent link, each a
// wire::FrameChannel over one Unix-domain socket.
//
// AgentEndpoint is the agent side: it owns the serve loop over one framed
// connection, decoding update batches back into runtime::Update (the same
// schema-directed fromString the journal uses) and driving one
// FaultTolerantController. It is the body of a `flayc agent` process
// connected to `flayc daemon`; tests run it on a thread at the far end of a
// socketpair.
//
// AgentLink is the daemon side. It is stop-and-wait: it sends one batch
// frame, waits for that batch's ack, and only then sends the next, so at
// most one frame is unread at either end and neither side can block on a
// full socket buffer. Every wait is bounded by receive and send timeouts on
// the descriptor: a hung agent becomes a WireError, never a hang. A round
// trip on a Unix socket costs microseconds, an agent's apply of a batch
// milliseconds, so a window of batches in flight would buy little.

#include <cstdint>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "wire/socket.h"

namespace flay::fleet {

/// Canonical fingerprint of a checked program (FNV over the normalized
/// printed source). Hello frames carry it so a daemon only ever dispatches
/// a program's updates to agents actually running that program (shard-by-
/// program), and so both ends agree on the schema `fromString` decodes
/// against.
std::string programFingerprint(const p4::CheckedProgram& checked);

/// Counters an AgentEndpoint accumulates over its lifetime.
struct AgentStats {
  uint64_t batches = 0;
  uint64_t applied = 0;
  uint64_t rejected = 0;
  uint64_t retries = 0;
};

/// Agent side of one link. serve() blocks until the daemon says kBye or
/// closes the connection (both clean), or a fatal error occurs (an
/// undecodable frame, an undecodable update, or a non-update exception out
/// of the controller — the device's state is then unknown). Fatal paths
/// send an explicit kError frame before returning false.
class AgentEndpoint {
 public:
  AgentEndpoint(const p4::CheckedProgram& checked,
                controller::FaultTolerantController& ctl,
                wire::FrameChannel channel, std::string deviceName,
                uint64_t seed = 0);

  bool serve();

  const AgentStats& stats() const { return stats_; }
  const std::string& lastError() const { return lastError_; }

 private:
  bool handleBatch(const wire::Frame& f);
  bool protocolError(uint32_t code, const std::string& detail);
  wire::Ack currentAck(uint64_t upToSeq) const;

  const p4::CheckedProgram& checked_;
  controller::FaultTolerantController& ctl_;
  wire::FrameChannel channel_;
  std::string name_;
  uint64_t seed_ = 0;
  std::string fingerprint_;
  AgentStats stats_;
  std::string lastError_;
};

/// Daemon side of one link: stop-and-wait batches over a FrameChannel.
/// Every method that touches the wire throws WireError if the link is (or
/// becomes) dead; after a throw the link stays dead.
class AgentLink {
 public:
  /// Updates per batch frame.
  static constexpr size_t kBatchSize = 32;

  AgentLink(wire::Fd fd, std::string label);

  AgentLink(const AgentLink&) = delete;
  AgentLink& operator=(const AgentLink&) = delete;

  /// Blocks for the agent's kHello (the agent speaks first).
  wire::Hello handshake();
  void accept();
  void reject(const std::string& why);  // sends HelloAck{false}; closes

  void enqueue(std::string updateText);

  /// Per-flush deltas (acks carry cumulative counters; flush() differences
  /// them so callers can fold results into their own accounting).
  struct FlushDelta {
    uint64_t applied = 0;
    uint64_t rejected = 0;
    uint64_t retries = 0;
    bool degraded = false;
    uint64_t committed = 0;
    uint64_t deviceVisible = 0;
    uint64_t batches = 0;
  };

  /// Sends every pending update in batch frames of up to kBatchSize, each
  /// acknowledged before the next is sent, and returns once the last one is.
  FlushDelta flush();

  wire::DigestReply digest();

  /// Best-effort clean shutdown (kBye / kByeAck); always closes.
  void bye();

  bool alive() const { return channel_.open(); }
  const std::string& label() const { return label_; }

 private:
  /// Runs `body` on a live link; a WireError out of it closes the link and
  /// is rethrown with the link's label.
  template <typename Body>
  auto guarded(Body body) -> decltype(body());
  /// The next frame, which must be of type `expect`. EOF, a kError frame
  /// or any other type throws WireError.
  wire::Frame recv(wire::FrameType expect);

  wire::FrameChannel channel_;
  std::string label_;
  std::vector<std::string> pending_;
  uint64_t seq_ = 0;  // seq of the last update the agent acknowledged
  wire::Ack lastAck_;  // cumulative counters from the latest ack
};

}  // namespace flay::fleet

#endif  // FLAY_FLEET_AGENT_H
