// Tests for the versioned wire protocol: frame codec round trips, a large
// malformed/truncated-frame fuzz battery (the decoder must never crash,
// hang, or misparse, however adversarial the bytes), byte-at-a-time
// partial-read reassembly, version negotiation, the torn-tail contract, the
// hardened Update::fromString surface, the daemon/agent link (the
// AgentLink/AgentEndpoint pair `flayc daemon` and `flayc agent` run, here
// with the agent on a thread) converging and recovering to the in-process
// controller's digest, and failing cleanly when the agent goes away.

#include "wire/wire.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "controller/controller.h"
#include "controller/device.h"
#include "fleet/agent.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "wire/socket.h"

namespace flay::wire {
namespace {

namespace fs = std::filesystem;

p4::CheckedProgram load(const char* name) {
  return p4::loadProgramFromFile(net::programPath(name));
}

/// Fresh state directory per test; removed on scope exit.
class StateDir {
 public:
  explicit StateDir(const char* tag) {
    path_ = fs::temp_directory_path() /
            (std::string("flay-wire-") + tag + "-" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~StateDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Frame codec round trips
// ---------------------------------------------------------------------------

TEST(WireCodec, FrameRoundTrip) {
  Writer w;
  w.u64(42);
  w.str("hello");
  std::vector<uint8_t> payload = w.take();
  std::vector<uint8_t> bytes = encodeFrame(FrameType::kBatch, payload);
  ASSERT_EQ(bytes.size(), kHeaderSize + payload.size());

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(dec.next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kBatch);
  EXPECT_EQ(f.payload, payload);
  EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireCodec, MessageRoundTrips) {
  Hello hello{"dev3", "0123456789abcdef", 7};
  Hello h2 = decodeHello(encode(hello));
  EXPECT_EQ(h2.deviceName, hello.deviceName);
  EXPECT_EQ(h2.programFingerprint, hello.programFingerprint);
  EXPECT_EQ(h2.seed, hello.seed);

  HelloAck ack{false, "program fingerprint mismatch"};
  HelloAck a2 = decodeHelloAck(encode(ack));
  EXPECT_FALSE(a2.accepted);
  EXPECT_EQ(a2.detail, ack.detail);

  Batch batch;
  batch.firstSeq = 100;
  batch.updates = {"insert T [1] -> a()", "delete T id=3", ""};
  Batch b2 = decodeBatch(encode(batch));
  EXPECT_EQ(b2.firstSeq, batch.firstSeq);
  EXPECT_EQ(b2.updates, batch.updates);

  Ack cum;
  cum.upToSeq = 9;
  cum.applied = 8;
  cum.rejected = 1;
  cum.retries = 3;
  cum.degraded = true;
  cum.committed = 8;
  cum.deviceVisible = 7;
  Ack c2 = decodeAck(encode(cum));
  EXPECT_EQ(c2.upToSeq, cum.upToSeq);
  EXPECT_EQ(c2.applied, cum.applied);
  EXPECT_EQ(c2.rejected, cum.rejected);
  EXPECT_EQ(c2.retries, cum.retries);
  EXPECT_EQ(c2.degraded, cum.degraded);
  EXPECT_EQ(c2.committed, cum.committed);
  EXPECT_EQ(c2.deviceVisible, cum.deviceVisible);

  DigestReply digest{"b64ca6491c864501", false, 12, 12};
  DigestReply d2 = decodeDigestReply(encode(digest));
  EXPECT_EQ(d2.digest, digest.digest);
  EXPECT_EQ(d2.committed, digest.committed);

  ErrorMsg err{kErrBadUpdate, "undecodable update text"};
  ErrorMsg e2 = decodeErrorMsg(encode(err));
  EXPECT_EQ(e2.code, err.code);
  EXPECT_EQ(e2.detail, err.detail);
}

// ---------------------------------------------------------------------------
// Structural rejection: version, magic, length, checksum
// ---------------------------------------------------------------------------

std::vector<uint8_t> validFrame() {
  Writer w;
  w.u64(1);
  w.str("x");
  return encodeFrame(FrameType::kBatch, w.take());
}

TEST(WireCodec, VersionMismatchRejected) {
  std::vector<uint8_t> bytes = validFrame();
  bytes[4] = 0x7f;  // version lives at offset 4, little-endian
  bytes[5] = 0x7f;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kError);
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("version"), std::string::npos) << dec.error();
  // Sticky: even valid bytes after the poison are refused.
  std::vector<uint8_t> good = validFrame();
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kError);
}

/// A frame from a peer speaking an older wire version must be refused with
/// the same version error as any other unspoken version, never decoded
/// against this version's frame types and schemas.
void expectOlderVersionRejected(uint16_t version) {
  ASSERT_LT(version, kVersion);
  std::vector<uint8_t> bytes = validFrame();
  bytes[4] = static_cast<uint8_t>(version);  // offset 4, little-endian
  bytes[5] = static_cast<uint8_t>(version >> 8);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kError);
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("wire version " + std::to_string(version) +
                             " unsupported"),
            std::string::npos)
      << dec.error();
}

// Version 2 reshaped the bulk payloads.
TEST(WireCodec, VersionOneFrameRejected) { expectOlderVersionRejected(1); }

// Version 3 dropped the recover, checkpoint and bulk frame types.
TEST(WireCodec, VersionTwoFrameRejected) {
  ASSERT_EQ(kVersion, 3);
  expectOlderVersionRejected(2);
}

TEST(WireCodec, BadMagicRejected) {
  std::vector<uint8_t> bytes = validFrame();
  bytes[0] ^= 0xff;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kError);
}

TEST(WireCodec, OversizedLengthPrefixRejectedWithoutAllocating) {
  std::vector<uint8_t> bytes = validFrame();
  // Length field at offset 8: claim a payload far beyond kMaxPayload. The
  // decoder must reject from the header alone — never wait for (or try to
  // buffer) 4 GiB.
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  bytes[10] = 0xff;
  bytes[11] = 0xff;
  FrameDecoder dec;
  dec.feed(bytes.data(), kHeaderSize);  // header only
  Frame f;
  EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kError);
}

TEST(WireCodec, ChecksumMismatchRejected) {
  std::vector<uint8_t> bytes = validFrame();
  bytes.back() ^= 0x01;  // corrupt the last payload byte
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kError);
}

TEST(WireCodec, EncodeRefusesOversizedPayload) {
  std::vector<uint8_t> huge(kMaxPayload + 1, 0);
  EXPECT_THROW(encodeFrame(FrameType::kBatch, huge), WireError);
}

// ---------------------------------------------------------------------------
// Partial reads and the torn tail
// ---------------------------------------------------------------------------

TEST(WireCodec, ByteAtATimeReassembly) {
  // A stream of several frames fed one byte per feed() must come out
  // identical to a single-shot feed.
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> stream;
  for (int i = 0; i < 5; ++i) {
    Writer w;
    w.u64(static_cast<uint64_t>(i));
    w.str(std::string(static_cast<size_t>(i) * 7, 'x'));
    payloads.push_back(w.take());
    std::vector<uint8_t> f = encodeFrame(FrameType::kBatch, payloads.back());
    stream.insert(stream.end(), f.begin(), f.end());
  }

  FrameDecoder dec;
  std::vector<std::vector<uint8_t>> got;
  for (uint8_t b : stream) {
    dec.feed(&b, 1);
    Frame f;
    while (dec.next(&f) == FrameDecoder::Status::kFrame) {
      got.push_back(f.payload);
    }
    ASSERT_FALSE(dec.failed()) << dec.error();
  }
  EXPECT_EQ(got, payloads);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireCodec, TornFrameIsNeedMoreNotError) {
  // A frame cut mid-header and one cut mid-payload are both "not written
  // yet" — exactly the WAL's torn-tail tolerance, never a protocol error.
  std::vector<uint8_t> bytes = validFrame();
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(bytes.data(), cut);
    Frame f;
    EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kNeedMore) << "cut=" << cut;
    EXPECT_FALSE(dec.failed()) << "cut=" << cut;
    EXPECT_EQ(dec.buffered(), cut) << "cut=" << cut;
    // Completing the frame later yields it intact.
    dec.feed(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kFrame) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Fuzz battery: the decoder survives anything
// ---------------------------------------------------------------------------

// >= 10k adversarial inputs: mutated valid frames, truncations, random
// garbage, and randomly chunked delivery. The invariants: next() always
// returns (no hang), never crashes (ASan/UBSan-clean), and every returned
// frame either decodes or throws WireError — nothing else escapes.
TEST(WireFuzz, DecoderSurvivesMalformedFrames) {
  std::mt19937_64 rng(0xf1a5);
  std::vector<std::vector<uint8_t>> seeds;
  {
    Writer w;
    seeds.push_back(encodeFrame(FrameType::kHello,
                                encode(Hello{"dev0", "fingerprint", 1})));
    Batch b;
    b.firstSeq = 1;
    b.updates = {"insert Ingress.fwd [0x0a000001] -> set_port(port=0x1)",
                 "delete Ingress.fwd id=2"};
    seeds.push_back(encodeFrame(FrameType::kBatch, encode(b)));
    Ack a;
    a.upToSeq = 2;
    seeds.push_back(encodeFrame(FrameType::kAck, encode(a)));
    seeds.push_back(encodeFrame(FrameType::kDigestReply,
                                encode(DigestReply{"x", true, 2, 1})));
    seeds.push_back(
        encodeFrame(FrameType::kError, encode(ErrorMsg{kErrBadFrame, "boom"})));
  }

  size_t framesOut = 0, errors = 0;
  for (int iter = 0; iter < 12000; ++iter) {
    std::vector<uint8_t> bytes;
    switch (rng() % 4) {
      case 0: {  // mutated valid frame: flip 1..8 bytes
        bytes = seeds[rng() % seeds.size()];
        size_t flips = 1 + rng() % 8;
        for (size_t i = 0; i < flips; ++i) {
          bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
        }
        break;
      }
      case 1: {  // truncated valid frame
        bytes = seeds[rng() % seeds.size()];
        bytes.resize(rng() % bytes.size());
        break;
      }
      case 2: {  // pure garbage
        bytes.resize(rng() % 256);
        for (auto& v : bytes) v = static_cast<uint8_t>(rng());
        break;
      }
      default: {  // valid frame followed by garbage (poisoned stream)
        bytes = seeds[rng() % seeds.size()];
        size_t extra = rng() % 64;
        for (size_t i = 0; i < extra; ++i) {
          bytes.push_back(static_cast<uint8_t>(rng()));
        }
        break;
      }
    }

    FrameDecoder dec;
    // Deliver in random-sized chunks to exercise reassembly paths too.
    size_t pos = 0;
    while (pos < bytes.size()) {
      size_t n = std::min<size_t>(1 + rng() % 37, bytes.size() - pos);
      dec.feed(bytes.data() + pos, n);
      pos += n;
      Frame f;
      FrameDecoder::Status st;
      while ((st = dec.next(&f)) == FrameDecoder::Status::kFrame) {
        ++framesOut;
        // Whatever the payload, a typed decode either succeeds or throws
        // WireError; any other escape is a codec bug.
        try {
          switch (f.type) {
            case FrameType::kHello:
              decodeHello(f.payload);
              break;
            case FrameType::kBatch:
              decodeBatch(f.payload);
              break;
            case FrameType::kAck:
              decodeAck(f.payload);
              break;
            case FrameType::kDigestReply:
              decodeDigestReply(f.payload);
              break;
            case FrameType::kError:
              decodeErrorMsg(f.payload);
              break;
            default:
              break;
          }
        } catch (const WireError&) {
          // expected for mangled payloads
        }
      }
      if (st == FrameDecoder::Status::kError) {
        ++errors;
        break;
      }
    }
  }
  // The battery must have exercised both outcomes heavily.
  EXPECT_GT(framesOut, 1000u);
  EXPECT_GT(errors, 1000u);
}

// Checksum integrity: a single flipped payload bit can never surface as a
// "valid" frame with the mangled payload (misparse). Header mutations may
// legitimately still parse (e.g. a type-field flip with a compensating
// checksum is impossible; a type flip alone changes only the type).
TEST(WireFuzz, PayloadCorruptionNeverMisparses) {
  std::mt19937_64 rng(0xc0de);
  Batch b;
  b.firstSeq = 7;
  b.updates = {"insert T [1] -> a()"};
  std::vector<uint8_t> payload = encode(b);
  std::vector<uint8_t> frame = encodeFrame(FrameType::kBatch, payload);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes = frame;
    size_t at = kHeaderSize + rng() % payload.size();
    bytes[at] ^= static_cast<uint8_t>(1 + rng() % 255);
    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_EQ(dec.next(&f), FrameDecoder::Status::kError)
        << "payload flip at " << at << " slipped past the checksum";
  }
}

// ---------------------------------------------------------------------------
// Update::fromString hardening (the text inside batch frames)
// ---------------------------------------------------------------------------

// Malformed update texts must throw std::invalid_argument — never crash,
// hang, or throw anything else. Seeds come from real fuzzed updates, then
// get truncated mid-token, spliced with newlines/whitespace, and hit with
// oversized numbers.
TEST(WireFuzz, UpdateFromStringSurvivesMalformedText) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 40, /*seed=*/11);
  std::vector<std::string> seeds;
  for (const auto& u : script) seeds.push_back(u.toString());

  std::mt19937_64 rng(0xfeed);
  size_t parsed = 0, rejected = 0;
  auto tryParse = [&](const std::string& text) {
    try {
      runtime::Update u = runtime::Update::fromString(checked, text);
      ++parsed;
      // Anything that parses must satisfy the round-trip law.
      EXPECT_EQ(runtime::Update::fromString(checked, u.toString()).toString(),
                u.toString());
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    // Any other exception type propagates and fails the test.
  };

  for (const auto& s : seeds) tryParse(s);  // round-trip sanity
  EXPECT_EQ(parsed, seeds.size());

  for (int iter = 0; iter < 12000; ++iter) {
    std::string t = seeds[rng() % seeds.size()];
    switch (rng() % 6) {
      case 0:  // truncate mid-token
        t.resize(rng() % (t.size() + 1));
        break;
      case 1: {  // splice a newline / embedded whitespace
        const char* splice[] = {"\n", "\r\n", "\t", "  ", "\n\n"};
        t.insert(rng() % (t.size() + 1), splice[rng() % 5]);
        break;
      }
      case 2: {  // oversized / overflowing number
        t.insert(rng() % (t.size() + 1), "184467440737095516199");
        break;
      }
      case 3: {  // flip one character
        if (!t.empty()) {
          t[rng() % t.size()] =
              static_cast<char>(32 + rng() % 95);
        }
        break;
      }
      case 4:  // trailing garbage
        t += " trailing garbage";
        break;
      default: {  // random short garbage string
        t.clear();
        size_t n = rng() % 48;
        for (size_t i = 0; i < n; ++i) {
          t += static_cast<char>(32 + rng() % 95);
        }
        break;
      }
    }
    tryParse(t);
  }
  // Most mutants must be rejected; a mutant that still parses is fine as
  // long as it round-trips (checked above).
  EXPECT_GT(rejected, 8000u);
}

TEST(WireFuzz, FromStringRejectsOverflowAndRangeAbuse) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 10, /*seed=*/3);
  std::string seed = script.front().toString();

  // A number that overflows uint64 must be a clean rejection.
  EXPECT_THROW(
      runtime::Update::fromString(checked, "delete Ingress.fwd id=99999999999999999999"),
      std::invalid_argument);
  // Trailing garbage after a structurally complete text must be rejected.
  EXPECT_THROW(runtime::Update::fromString(checked, seed + " extra"),
               std::invalid_argument);
  // Embedded newline can't silently terminate parsing early.
  EXPECT_THROW(runtime::Update::fromString(checked, seed + "\ninsert"),
               std::invalid_argument);
  EXPECT_THROW(runtime::Update::fromString(checked, ""),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Socket channel + endpoint integration
// ---------------------------------------------------------------------------

TEST(WireSocket, FrameChannelRoundTripOverSocketpair) {
  auto fds = socketPair();
  FrameChannel a(std::move(fds.first));
  FrameChannel b(std::move(fds.second));
  a.send(FrameType::kHello, encode(Hello{"dev0", "fp", 1}));
  Frame f;
  ASSERT_TRUE(b.recv(&f));
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(decodeHello(f.payload).deviceName, "dev0");
  a.close();
  EXPECT_FALSE(b.recv(&f));  // EOF is false, not a throw
}

TEST(WireSocket, TornFrameAtEofIsCleanClose) {
  auto fds = socketPair();
  // Write a header that promises more payload than ever arrives, then die.
  Writer w;
  w.u64(1);
  std::vector<uint8_t> bytes = encodeFrame(FrameType::kBatch, w.take());
  bytes.resize(bytes.size() - 3);  // torn mid-payload
  sendAll(fds.first.get(), bytes);
  fds.first.reset();
  FrameChannel b(std::move(fds.second));
  Frame f;
  EXPECT_FALSE(b.recv(&f));  // torn tail: the frame never happened
}

// ---------------------------------------------------------------------------
// Daemon/agent link: the deployment path, with the agent on a thread
// ---------------------------------------------------------------------------

/// One device agent on a thread at the far end of a socketpair: the
/// AgentEndpoint and controller a `flayc agent` process runs, with the
/// daemon's AgentLink on this end, handshake done. Dropping the object
/// closes the link without a goodbye, as if the daemon died: the agent sees
/// EOF and stops.
class ThreadAgent {
 public:
  ThreadAgent(const p4::CheckedProgram& checked,
              controller::ControllerOptions options)
      : ctl_(checked, &device_, std::move(options)) {
    auto fds = socketPair();
    endpoint_ = std::make_unique<fleet::AgentEndpoint>(
        checked, ctl_, FrameChannel(std::move(fds.second)), "dev0");
    thread_ = std::thread([this] { served_ = endpoint_->serve(); });
    link_ = std::make_unique<fleet::AgentLink>(std::move(fds.first), "dev0");
    try {
      Hello hello = link_->handshake();
      EXPECT_EQ(hello.programFingerprint, fleet::programFingerprint(checked));
      link_->accept();
    } catch (...) {
      stop();
      throw;
    }
  }
  ~ThreadAgent() { stop(); }
  ThreadAgent(const ThreadAgent&) = delete;
  ThreadAgent& operator=(const ThreadAgent&) = delete;

  fleet::AgentLink& link() { return *link_; }
  const controller::FaultTolerantController& controller() const {
    return ctl_;
  }
  /// The agent's counters; read after stop().
  const fleet::AgentStats& stats() const { return endpoint_->stats(); }

  /// Sends every update as batch frames and waits for the agent's acks.
  fleet::AgentLink::FlushDelta send(
      const std::vector<runtime::Update>& updates) {
    for (const auto& u : updates) link_->enqueue(u.toString());
    return link_->flush();
  }

  /// Drops the link and joins the agent; true if it stopped cleanly.
  bool stop() {
    link_.reset();
    if (thread_.joinable()) thread_.join();
    return served_;
  }

 private:
  controller::SimulatedDevice device_{controller::FaultPlan{}};
  controller::FaultTolerantController ctl_;
  std::unique_ptr<fleet::AgentEndpoint> endpoint_;
  std::unique_ptr<fleet::AgentLink> link_;
  bool served_ = false;
  std::thread thread_;
};

/// Digest of one in-process controller fed `updates` in order, skipping the
/// ones the engine rejects (as the agent does).
std::string referenceDigest(const p4::CheckedProgram& checked,
                            const std::vector<runtime::Update>& updates) {
  controller::SimulatedDevice device{controller::FaultPlan{}};
  controller::FaultTolerantController ctl(checked, &device);
  for (const auto& u : updates) {
    try {
      ctl.apply(u);
    } catch (const std::invalid_argument&) {
    }
  }
  return ctl.stateDigest();
}

// Stop-and-wait: 70 updates leave as three batch frames (32, 32, 6), each
// acknowledged in order before the next is sent, and the agent lands on the
// in-process controller's digest.
TEST(WireFleet, StopAndWaitSendsOneBatchPerAck) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 70, /*seed=*/9);

  ThreadAgent agent(checked, {});
  fleet::AgentLink::FlushDelta delta = agent.send(script);
  EXPECT_EQ(delta.batches, 3u);
  EXPECT_GT(delta.applied, 0u);
  EXPECT_EQ(delta.applied + delta.rejected, script.size());
  EXPECT_EQ(delta.committed, delta.applied);
  DigestReply reply = agent.link().digest();
  EXPECT_EQ(reply.committed, delta.applied);
  EXPECT_EQ(reply.digest, referenceDigest(checked, script));
  agent.link().bye();
  EXPECT_TRUE(agent.stop());
  EXPECT_EQ(agent.stats().batches, 3u);
}

// An agent that closes its end mid-stream (here after acknowledging the
// first batch, while the daemon waits for the second batch's ack) fails the
// flush with WireError, and the link stays dead.
TEST(WireFleet, AgentClosedMidStreamKillsTheLink) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 70, /*seed=*/9);
  auto fds = socketPair();
  std::thread agent([fd = std::move(fds.second)]() mutable {
    FrameChannel ch(std::move(fd));
    ch.send(FrameType::kHello, encode(Hello{"dev0", "fp", 0}));
    Frame f;
    if (!ch.recv(&f) || f.type != FrameType::kHelloAck) return;
    if (!ch.recv(&f) || f.type != FrameType::kBatch) return;
    Batch batch = decodeBatch(f.payload);
    Ack ack;
    ack.upToSeq = batch.firstSeq + batch.updates.size() - 1;
    ack.applied = batch.updates.size();
    ch.send(FrameType::kAck, encode(ack));
    ch.recv(&f);  // the second batch, never acknowledged
  });

  fleet::AgentLink link(std::move(fds.first), "dev0");
  EXPECT_EQ(link.handshake().deviceName, "dev0");
  link.accept();
  for (const auto& u : script) link.enqueue(u.toString());
  std::string error;
  try {
    link.flush();
  } catch (const WireError& e) {
    error = e.what();
  }
  agent.join();
  EXPECT_NE(error.find("agent closed the connection"), std::string::npos)
      << error;
  EXPECT_FALSE(link.alive());
  EXPECT_THROW(link.flush(), WireError);
  EXPECT_THROW(link.digest(), WireError);
}

// Kill-mid-stream recovery, reusing the journal machinery: an agent over a
// state dir loses its daemon after the first half; a controller recovered
// from the same dir, behind a fresh endpoint, replays exactly what the first
// half applied, finishes the stream, and lands on the digest of an
// uninterrupted run.
TEST(WireFleet, KillAndRestartRecoversToReferenceDigest) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 20, /*seed=*/8);
  std::vector<runtime::Update> first(script.begin(),
                                     script.begin() + script.size() / 2);
  std::vector<runtime::Update> second(script.begin() + script.size() / 2,
                                      script.end());
  StateDir dir("killrestart");
  controller::ControllerOptions opts;
  opts.stateDir = dir.str();

  uint64_t firstApplied = 0;
  {
    ThreadAgent agent(checked, opts);
    firstApplied = agent.send(first).applied;
    EXPECT_GT(firstApplied, 0u);
    EXPECT_TRUE(agent.stop());  // the daemon dies; the journal survives
  }

  ThreadAgent restarted(checked, opts);
  EXPECT_EQ(restarted.controller().replayedUpdates(), firstApplied);
  fleet::AgentLink::FlushDelta delta = restarted.send(second);
  EXPECT_EQ(delta.applied + delta.rejected, second.size());
  EXPECT_EQ(restarted.link().digest().digest,
            referenceDigest(checked, script));
  restarted.link().bye();
  EXPECT_TRUE(restarted.stop());
}

}  // namespace
}  // namespace flay::wire
