#include <gtest/gtest.h>

#include "net/fuzzer.h"
#include "net/headers.h"
#include "net/workloads.h"
#include "p4/typecheck.h"
#include "sim/interpreter.h"

namespace flay::sim {
namespace {

using runtime::FieldMatch;
using runtime::TableEntry;

const char* kL2L3Program = R"(
header eth_t { bit<48> dst; bit<48> src; bit<16> type; }
header ipv4_t {
  bit<4> version; bit<4> ihl; bit<8> tos; bit<16> len;
  bit<16> id; bit<3> flags; bit<13> frag;
  bit<8> ttl; bit<8> proto; bit<16> csum;
  bit<32> src; bit<32> dst;
}
struct headers { eth_t eth; ipv4_t ipv4; }

parser P {
  state start {
    extract(hdr.eth);
    transition select(hdr.eth.type) {
      0x800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 { extract(hdr.ipv4); transition accept; }
}

control Ingress {
  register<bit<32>>(64) pkt_count;
  counter(16) port_ctr;
  action set_port(bit<9> port) { sm.egress_spec = port; }
  action drop_pkt() { mark_to_drop(); }
  table fwd {
    key = { hdr.ipv4.dst : lpm; }
    actions = { set_port; drop_pkt; noop; }
    default_action = drop_pkt;
  }
  apply {
    if (hdr.ipv4.isValid()) {
      fwd.apply();
      hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
      if (hdr.ipv4.ttl == 0) { mark_to_drop(); }
      bit<32> c = 0;
      pkt_count.read(c, 0);
      pkt_count.write(0, c + 1);
    } else {
      set_port(1);
    }
    port_ctr.count((bit<32>) sm.ingress_port);
  }
}

deparser D { emit(hdr.eth); emit(hdr.ipv4); }
pipeline(P, Ingress, D);
)";

class SimTest : public ::testing::Test {
 protected:
  SimTest()
      : checked(p4::loadProgramFromString(kL2L3Program)),
        config(checked),
        state(checked),
        interp(checked, config, state) {}

  Packet ipv4Packet(uint32_t dst, uint8_t ttl = 64) {
    net::Ipv4Header ip;
    ip.dst = dst;
    ip.ttl = ttl;
    net::EthHeader eth;
    eth.type = 0x800;
    Packet p;
    p.bytes = net::PacketBuilder().eth(eth).ipv4(ip).build();
    return p;
  }

  void installRoute(uint32_t prefix, uint32_t plen, uint16_t port) {
    TableEntry e;
    e.matches.push_back(FieldMatch::lpm(BitVec(32, prefix), plen));
    e.actionName = "set_port";
    e.actionArgs.push_back(BitVec(9, port));
    config.table("Ingress.fwd").insert(std::move(e));
  }

  p4::CheckedProgram checked;
  runtime::DeviceConfig config;
  DataPlaneState state;
  Interpreter interp;
};

TEST_F(SimTest, NonIpv4TakesElseBranch) {
  net::EthHeader eth;
  eth.type = 0x806;  // ARP: parser skips ipv4
  Packet p;
  p.bytes = net::PacketBuilder().eth(eth).build();
  ExecResult r = interp.process(p);
  EXPECT_TRUE(r.parserAccepted);
  EXPECT_FALSE(r.dropped);
  EXPECT_EQ(r.egressPort, 1u);
  EXPECT_EQ(r.field("hdr.ipv4.$valid").toUint64(), 0u);
}

TEST_F(SimTest, Ipv4MissDefaultDrops) {
  ExecResult r = interp.process(ipv4Packet(0x0A000001));
  EXPECT_TRUE(r.dropped);
}

TEST_F(SimTest, Ipv4HitForwardsAndDecrementsTtl) {
  installRoute(0x0A000000, 8, 3);
  ExecResult r = interp.process(ipv4Packet(0x0A000001, 64));
  EXPECT_FALSE(r.dropped);
  EXPECT_EQ(r.egressPort, 3u);
  EXPECT_EQ(r.field("hdr.ipv4.ttl").toUint64(), 63u);
}

TEST_F(SimTest, TtlExpiryDrops) {
  installRoute(0x0A000000, 8, 3);
  ExecResult r = interp.process(ipv4Packet(0x0A000001, 1));
  EXPECT_TRUE(r.dropped);
}

TEST_F(SimTest, LongestPrefixPreferred) {
  installRoute(0x0A000000, 8, 3);
  installRoute(0x0A010000, 16, 4);
  EXPECT_EQ(interp.process(ipv4Packet(0x0A010001)).egressPort, 4u);
  EXPECT_EQ(interp.process(ipv4Packet(0x0A020001)).egressPort, 3u);
}

TEST_F(SimTest, RegistersPersistAcrossPackets) {
  installRoute(0x0A000000, 8, 3);
  interp.process(ipv4Packet(0x0A000001));
  interp.process(ipv4Packet(0x0A000002));
  interp.process(ipv4Packet(0x0A000003));
  EXPECT_EQ(state.registerRead("Ingress.pkt_count", 0).toUint64(), 3u);
}

TEST_F(SimTest, CountersTrackIngressPort) {
  Packet p = ipv4Packet(0x0A000001);
  p.ingressPort = 5;
  interp.process(p);
  interp.process(p);
  EXPECT_EQ(state.counterValue("Ingress.port_ctr", 5), 2u);
  EXPECT_EQ(state.counterValue("Ingress.port_ctr", 4), 0u);
}

TEST_F(SimTest, TruncatedPacketRejected) {
  Packet p;
  p.bytes = {0xAA, 0xBB};  // far too short for an ethernet header
  ExecResult r = interp.process(p);
  EXPECT_FALSE(r.parserAccepted);
  EXPECT_TRUE(r.dropped);
}

TEST_F(SimTest, DeparserRoundTripsHeaders) {
  installRoute(0x0A000000, 8, 3);
  Packet p = ipv4Packet(0x0A000001, 64);
  ExecResult r = interp.process(p);
  ASSERT_EQ(r.outputBytes.size(), p.bytes.size());
  // Everything before the TTL byte (offset 14+8) is unchanged.
  for (size_t i = 0; i < 22; ++i) {
    EXPECT_EQ(r.outputBytes[i], p.bytes[i]) << "byte " << i;
  }
  EXPECT_EQ(r.outputBytes[22], 63);  // decremented TTL
}

TEST_F(SimTest, ParserFieldExtractionIsExact) {
  net::EthHeader eth;
  eth.dst = 0x112233445566;
  eth.src = 0xAABBCCDDEEFF;
  eth.type = 0x800;
  net::Ipv4Header ip;
  ip.src = 0xC0A80101;
  ip.dst = 0x08080808;
  ip.proto = 17;
  Packet p;
  p.bytes = net::PacketBuilder().eth(eth).ipv4(ip).build();
  ExecResult r = interp.process(p);
  EXPECT_EQ(r.field("hdr.eth.dst").toUint64(), 0x112233445566u);
  EXPECT_EQ(r.field("hdr.eth.src").toUint64(), 0xAABBCCDDEEFFu);
  EXPECT_EQ(r.field("hdr.ipv4.src").toUint64(), 0xC0A80101u);
  EXPECT_EQ(r.field("hdr.ipv4.dst").toUint64(), 0x08080808u);
  EXPECT_EQ(r.field("hdr.ipv4.proto").toUint64(), 17u);
  EXPECT_EQ(r.field("hdr.ipv4.version").toUint64(), 4u);
  EXPECT_EQ(r.field("hdr.ipv4.ihl").toUint64(), 5u);
}

TEST(SimParts, BitReaderWriterRoundTrip) {
  BitWriter w;
  w.write(BitVec(4, 0xA));
  w.write(BitVec(12, 0xBCD));
  w.write(BitVec(48, 0x112233445566));
  auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 8u);
  BitReader r(bytes);
  BitVec v;
  ASSERT_TRUE(r.read(4, v));
  EXPECT_EQ(v.toUint64(), 0xAu);
  ASSERT_TRUE(r.read(12, v));
  EXPECT_EQ(v.toUint64(), 0xBCDu);
  ASSERT_TRUE(r.read(48, v));
  EXPECT_EQ(v.toUint64(), 0x112233445566u);
  EXPECT_FALSE(r.read(8, v));
}

TEST(SimParts, InternetChecksum) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2 -> csum 0x220d
  std::vector<uint8_t> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(net::internetChecksum(data, 0, data.size()), 0x220Du);
}

// Value-set driven parser branches.
TEST(SimValueSet, ParserValueSetControlsBranch) {
  auto checked = p4::loadProgramFromString(R"(
header e_t { bit<16> tag; bit<8> body; }
struct headers { e_t e; }
parser P {
  value_set<bit<16>>(4) special;
  state start {
    extract(hdr.e);
    transition select(hdr.e.tag) {
      special: mark;
      default: accept;
    }
  }
  state mark { transition accept; }
}
control C {
  apply { sm.egress_spec = 2; }
}
deparser D { emit(hdr.e); }
pipeline(P, C, D);
)");
  runtime::DeviceConfig config(checked);
  DataPlaneState state(checked);
  Interpreter interp(checked, config, state);

  Packet p;
  p.bytes = {0x81, 0x00, 0x42};
  EXPECT_TRUE(interp.process(p).parserAccepted);

  config.valueSet("P.special").insert(BitVec(16, 0x8100));
  ExecResult r = interp.process(p);
  EXPECT_TRUE(r.parserAccepted);  // goes through 'mark' now
}

// Select with no matching case and no default rejects.
TEST(SimValueSet, SelectWithoutDefaultRejects) {
  auto checked = p4::loadProgramFromString(R"(
header e_t { bit<16> tag; }
struct headers { e_t e; }
parser P {
  state start {
    extract(hdr.e);
    transition select(hdr.e.tag) {
      0x800: accept;
    }
  }
}
control C { apply { } }
deparser D { emit(hdr.e); }
pipeline(P, C, D);
)");
  runtime::DeviceConfig config(checked);
  DataPlaneState state(checked);
  Interpreter interp(checked, config, state);
  Packet hit;
  hit.bytes = {0x08, 0x00};
  EXPECT_TRUE(interp.process(hit).parserAccepted);
  Packet miss;
  miss.bytes = {0x12, 0x34};
  EXPECT_FALSE(interp.process(miss).parserAccepted);
}

TEST(SimExit, ExitStopsControl) {
  auto checked = p4::loadProgramFromString(R"(
header e_t { bit<8> a; }
struct headers { e_t e; }
parser P { state start { extract(hdr.e); transition accept; } }
control C {
  apply {
    sm.egress_spec = 1;
    if (hdr.e.a == 7) { exit; }
    sm.egress_spec = 2;
  }
}
deparser D { emit(hdr.e); }
pipeline(P, C, D);
)");
  runtime::DeviceConfig config(checked);
  DataPlaneState state(checked);
  Interpreter interp(checked, config, state);
  Packet p7{{7}, 0};
  EXPECT_EQ(interp.process(p7).egressPort, 1u);
  Packet p8{{8}, 0};
  EXPECT_EQ(interp.process(p8).egressPort, 2u);
}

TEST(SimMeter, MeterColorGatesTraffic) {
  auto checked = p4::loadProgramFromString(R"(
header e_t { bit<8> a; }
struct headers { e_t e; }
parser P { state start { extract(hdr.e); transition accept; } }
control C {
  meter(8) m;
  apply {
    sm.egress_spec = 1;
    bit<2> color = 0;
    m.execute(color, (bit<32>) hdr.e.a);
    if (color == 2) { mark_to_drop(); }
  }
}
deparser D { emit(hdr.e); }
pipeline(P, C, D);
)");
  runtime::DeviceConfig config(checked);
  DataPlaneState state(checked);
  Interpreter interp(checked, config, state);
  Packet p{{3}, 0};
  EXPECT_FALSE(interp.process(p).dropped);
  state.meterSetColor("C.m", 3, 2);  // red
  EXPECT_TRUE(interp.process(p).dropped);
}

TEST(SimHeaderOps, SetValidAndInvalid) {
  auto checked = p4::loadProgramFromString(R"(
header a_t { bit<8> x; }
header b_t { bit<8> y; }
struct headers { a_t a; b_t b; }
parser P { state start { extract(hdr.a); transition accept; } }
control C {
  apply {
    hdr.b.setValid();
    hdr.b.y = 0x55;
    if (hdr.a.x == 9) { hdr.a.setInvalid(); }
    sm.egress_spec = 1;
  }
}
deparser D { emit(hdr.a); emit(hdr.b); }
pipeline(P, C, D);
)");
  runtime::DeviceConfig config(checked);
  DataPlaneState state(checked);
  Interpreter interp(checked, config, state);
  Packet p{{0x11}, 0};
  ExecResult r = interp.process(p);
  ASSERT_EQ(r.outputBytes.size(), 2u);  // a + b emitted
  EXPECT_EQ(r.outputBytes[0], 0x11);
  EXPECT_EQ(r.outputBytes[1], 0x55);
  Packet p9{{9}, 0};
  ExecResult r9 = interp.process(p9);
  ASSERT_EQ(r9.outputBytes.size(), 1u);  // a invalidated, only b emitted
  EXPECT_EQ(r9.outputBytes[0], 0x55);
}

/// The extern state as a dense array per extern would hold it: every cell
/// of every register, counter and meter read back through the public API,
/// rendered the way externSnapshot() documents (cells that differ from
/// zero).
std::map<std::string, std::string> denseSnapshot(
    const p4::CheckedProgram& checked, const DataPlaneState& state) {
  std::map<std::string, std::string> snap;
  auto cell = [](const std::string& name, uint64_t i) {
    return name + "[" + std::to_string(i) + "]";
  };
  for (const auto& control : checked.program.controls) {
    for (const auto& r : control.registers) {
      std::string name = control.name + "." + r.name;
      for (uint64_t i = 0; i < r.size; ++i) {
        BitVec v = state.registerRead(name, i);
        EXPECT_EQ(v.width(), r.width) << cell(name, i);
        if (!v.isZero()) snap[cell(name, i)] = v.toHexString();
      }
    }
    for (const auto& c : control.counters) {
      std::string name = control.name + "." + c.name;
      for (uint64_t i = 0; i < c.size; ++i) {
        uint64_t v = state.counterValue(name, i);
        if (v != 0) snap[cell(name, i)] = std::to_string(v);
      }
    }
    for (const auto& m : control.meters) {
      std::string name = control.name + "." + m.name;
      for (uint64_t i = 0; i < m.size; ++i) {
        uint32_t v = state.meterExecute(name, i);
        if (v != 0) snap[cell(name, i)] = std::to_string(v);
      }
    }
  }
  return snap;
}

// Register arrays store only the cells written, so the behaviour a dense
// array gives must still hold: after a packet run on switch.p4l (16384 +
// 4096 register cells) externSnapshot() lists exactly the non-zero cells;
// writing zero clears a cell from it; out-of-range reads give zero of the
// register's width and out-of-range writes change nothing; unknown names
// throw; and reset() returns every cell to zero, like a fresh state.
TEST(SimDataPlaneState, SparseRegistersBehaveLikeDenseArrays) {
  p4::CheckedProgram checked =
      p4::loadProgramFromFile(net::programPath("switch"));
  runtime::DeviceConfig config(checked);
  for (const runtime::Update& u : net::fuzzUpdateSequence(checked, 200, 3)) {
    try {
      config.apply(u);
    } catch (const std::invalid_argument&) {
    }
  }
  // A dmac miss then indexes learn_hits in range (l2_miss_flood's 0xFFFF is
  // out of range), so the packets write register cells.
  config.apply(runtime::Update::setDefault("SwitchIngress.dmac_fwd", "l2_hit",
                                           {BitVec(16, 7)}));
  DataPlaneState state(checked);
  EXPECT_TRUE(state.externSnapshot().empty());
  EXPECT_TRUE(denseSnapshot(checked, state).empty());

  Interpreter interp(checked, config, state);
  net::PacketFuzzer fuzzer(checked, config, 17);
  std::vector<Packet> packets;
  for (int i = 0; i < 400; ++i) packets.push_back(fuzzer.randomPacket());
  for (const Packet& p : packets) interp.process(p);
  std::map<std::string, std::string> afterRun = state.externSnapshot();
  size_t registerCells = 0;
  for (const auto& [name, value] : afterRun) {
    registerCells += name.rfind("SwitchIngress.learn_hits[", 0) == 0 ||
                     name.rfind("SwitchIngress.flow_bytes[", 0) == 0;
  }
  EXPECT_GT(registerCells, 0u);
  EXPECT_EQ(afterRun, denseSnapshot(checked, state));

  // Out of range: reads are zero of the register's width, writes vanish.
  const std::string reg = "SwitchIngress.learn_hits";
  EXPECT_EQ(state.registerRead(reg, 4096), BitVec::zero(16));
  EXPECT_EQ(state.registerRead(reg, uint64_t{1} << 40), BitVec::zero(16));
  state.registerWrite(reg, 4096, BitVec(16, 7));
  state.registerWrite(reg, uint64_t{1} << 40, BitVec(16, 7));
  state.counterIncrement("SwitchIngress.port_rx", 1u << 20);
  EXPECT_EQ(state.counterValue("SwitchIngress.port_rx", 1u << 20), 0u);
  EXPECT_EQ(state.externSnapshot(), afterRun);

  // The last in-range cell holds a write; writing zero clears it again.
  state.registerWrite(reg, 4095, BitVec(16, 0x2a));
  EXPECT_EQ(state.registerRead(reg, 4095), BitVec(16, 0x2a));
  EXPECT_EQ(state.externSnapshot().at(reg + "[4095]"), "0x002a");
  state.registerWrite(reg, 4095, BitVec::zero(16));
  EXPECT_EQ(state.externSnapshot(), afterRun);
  EXPECT_EQ(state.externSnapshot(), denseSnapshot(checked, state));

  EXPECT_THROW(state.registerRead("SwitchIngress.nope", 0),
               std::invalid_argument);
  EXPECT_THROW(state.registerWrite("SwitchIngress.nope", 0, BitVec(8, 1)),
               std::invalid_argument);

  // reset() is a fresh state: the same packets leave the same snapshot.
  state.reset();
  EXPECT_TRUE(state.externSnapshot().empty());
  EXPECT_TRUE(denseSnapshot(checked, state).empty());
  for (const Packet& p : packets) interp.process(p);
  EXPECT_EQ(state.externSnapshot(), afterRun);
}

}  // namespace
}  // namespace flay::sim
