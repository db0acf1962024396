#ifndef FLAY_FLEET_AGENT_H
#define FLAY_FLEET_AGENT_H

// The two halves of a controller-daemon <-> device-agent link.
//
// AgentEndpoint is the agent side: it owns the serve loop over one framed
// connection, decoding update batches back into runtime::Update (the same
// schema-directed fromString the journal uses) and driving one
// FaultTolerantController. It is the body of a `flayc agent` process
// connected to `flayc daemon` over a Unix-domain socket; tests run it on a
// thread at the far end of a socketpair.
//
// AgentLink is the daemon side: a nonblocking descriptor with pipelined
// batch writes and batched acks — up to windowBatches batch frames are in
// flight before the first ack is required, and acks are drained while
// writes are still streaming, so neither side can deadlock on a full
// socket buffer and the link's throughput is bounded by the agent's apply
// rate, not by round trips.

#include <cstdint>
#include <deque>
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

/// Daemon side of one link: pipelined, windowed batch writes over a
/// nonblocking descriptor. Every method that touches the wire throws
/// WireError if the link is (or becomes) dead; after a throw the link stays
/// dead.
class AgentLink {
 public:
  AgentLink(wire::Fd fd, std::string label, size_t batchSize = 32,
            size_t windowBatches = 8);
  ~AgentLink();

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
    uint64_t bytesOut = 0;
    uint64_t bytesIn = 0;
  };

  /// Writes every pending update as pipelined batch frames and returns once
  /// the agent has acknowledged all of them.
  FlushDelta flush();

  wire::DigestReply digest();

  /// Best-effort clean shutdown (kBye / kByeAck); always closes.
  void bye();

  bool alive() const { return fd_.valid() && !dead_; }
  const std::string& label() const { return label_; }
  const std::string& deathReason() const { return deathReason_; }

 private:
  [[noreturn]] void die(const std::string& why);
  void pumpRead(FlushDelta* delta);
  /// Processes one inbound frame during flush (acks advance the window).
  void consume(const wire::Frame& f);
  wire::Frame waitFrame(wire::FrameType expect, int timeoutMs);
  void writeAllBlocking(const std::vector<uint8_t>& bytes);

  wire::Fd fd_;
  std::string label_;
  size_t batchSize_;
  size_t windowBatches_;
  wire::FrameDecoder decoder_;
  std::deque<std::string> pending_;
  size_t inFlight_ = 0;    // batches written but not yet acknowledged
  uint64_t seq_ = 0;       // seq of the last update handed to flush()'s wire
  uint64_t ackedSeq_ = 0;  // seq of the last update the agent acknowledged
  wire::Ack lastAck_;      // cumulative counters from the latest ack
  bool sawAck_ = false;
  bool dead_ = false;
  std::string deathReason_;
  int timeoutMs_ = 120000;
};

}  // namespace flay::fleet

#endif  // FLAY_FLEET_AGENT_H
