// Streaming bulk-load path (FlayService::applyStream): digest parity with a
// sequential replay, chunk report consistency, rejection handling, and the
// batch-abort counter contract on the sequential applyBatch path it scales
// up from.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "flay/engine.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "obs/obs.h"

namespace p4 = flay::p4;
namespace net = flay::net;
namespace runtime = flay::runtime;
namespace core = flay::flay;
namespace obs = flay::obs;
using flay::BitVec;
using runtime::FieldMatch;
using runtime::TableEntry;
using runtime::Update;

namespace {

p4::CheckedProgram load(const std::string& name) {
  return p4::loadProgramFromFile(net::programPath(name));
}

std::string sequentialDigest(const p4::CheckedProgram& checked,
                             const std::vector<Update>& stream) {
  core::FlayService svc(checked);
  for (const auto& u : stream) {
    try {
      svc.applyUpdate(u);
    } catch (const std::invalid_argument&) {
    }
  }
  return svc.stateDigest();
}

TableEntry aclEntry(uint32_t src, uint32_t srcMask, uint32_t dst,
                    uint32_t dstMask, int32_t priority) {
  TableEntry e;
  e.matches.push_back(FieldMatch::ternary(BitVec(32, src), BitVec(32, srcMask)));
  e.matches.push_back(FieldMatch::ternary(BitVec(32, dst), BitVec(32, dstMask)));
  e.matches.push_back(FieldMatch::ternary(BitVec(8, 6), BitVec(8, 0xFF)));
  e.matches.push_back(FieldMatch::ternary(BitVec(16, 80), BitVec(16, 0xFFFF)));
  e.matches.push_back(FieldMatch::ternary(BitVec(16, 443), BitVec(16, 0xFFFF)));
  e.actionName = "set_vrf";
  e.actionArgs.push_back(BitVec(10, 7));
  e.priority = priority;
  return e;
}

// --- applyBatch counter contract (the scaled-down sequential path) ---------

TEST(BatchCounters, PerUpdateApplySamplesAndOneBatchSample) {
  auto checked = load("scion");
  core::FlayService svc(checked);
  obs::Histogram& applyUs =
      obs::Registry::global().histogram("flay.config_apply_us");
  obs::Histogram& batchUs =
      obs::Registry::global().histogram("flay.batch_apply_us");
  applyUs.reset();
  batchUs.reset();
  auto burst = net::scionV4RouteBurst(50);
  svc.applyBatch(burst);
  // One latency sample per update, one for the whole batch — batch size
  // must never skew the per-apply quantiles.
  EXPECT_EQ(applyUs.count(), 50u);
  EXPECT_EQ(batchUs.count(), 1u);
}

TEST(BatchCounters, MidBatchThrowRecordsAbortAndStaysConsistent) {
  auto checked = load("scion");
  core::FlayService svc(checked);
  obs::Counter& aborts = obs::Registry::global().counter("flay.batch_aborts");
  obs::Counter& updates = obs::Registry::global().counter("flay.updates");
  obs::Histogram& applyUs =
      obs::Registry::global().histogram("flay.config_apply_us");

  auto burst = net::scionV4RouteBurst(3);
  std::vector<Update> batch = {burst[0],
                               Update::insert("ScionIngress.no_such_table",
                                              burst[1].entry),
                               burst[2]};
  uint64_t abortsBefore = aborts.value();
  uint64_t updatesBefore = updates.value();
  applyUs.reset();
  EXPECT_THROW(svc.applyBatch(batch), std::invalid_argument);
  EXPECT_EQ(aborts.value(), abortsBefore + 1);
  // Only the successfully installed prefix counts as applied updates, but
  // the failed apply still gets a latency sample.
  EXPECT_EQ(updates.value(), updatesBefore + 1);
  EXPECT_EQ(applyUs.count(), 2u);
  // The installed prefix was re-analyzed before the throw surfaced: state
  // digest matches a clean sequential apply of just that prefix.
  core::FlayService ref(checked);
  ref.applyUpdate(burst[0]);
  EXPECT_EQ(svc.stateDigest(), ref.stateDigest());
}

// --- bulk path parity with sequential replay -------------------------------

TEST(BulkParity, ScionRouteBurstDigestMatchesSequential) {
  auto checked = load("scion");
  std::vector<Update> stream = net::scionCommonConfig();
  for (const auto& u : net::scionV4Config(4)) stream.push_back(u);
  for (const auto& u : net::scionV4RouteBurst(400)) stream.push_back(u);

  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 64;
  auto rep = svc.bulkLoad(stream, opts);
  // The burst drives v4_t01 well past the over-approximation threshold, so
  // most chunks digest the table from its counts alone.
  EXPECT_TRUE(rep.overapproximated);
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, stream));
}

TEST(BulkParity, DashFlowTableDigestMatchesSequential) {
  auto checked = load("dash");
  runtime::DeviceConfig cfg(checked);
  net::EntryFuzzer fuzzer(11);
  std::vector<Update> stream;
  for (auto& e :
       fuzzer.uniqueEntries(cfg.table("DashIngress.flow_table"), 200)) {
    stream.push_back(Update::insert("DashIngress.flow_table", std::move(e)));
  }
  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 64;
  auto rep = svc.bulkLoad(stream, opts);
  EXPECT_EQ(rep.applied, stream.size());
  EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, stream));
}

TEST(BulkParity, MiddleblockAclDigestMatchesSequential) {
  auto checked = load("middleblock");
  auto stream = net::middleblockAclEntries(200);
  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 64;
  auto rep = svc.bulkLoad(stream, opts);
  EXPECT_EQ(rep.applied, stream.size());
  EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, stream));
  // Chunks of 32 put the threshold crossing inside a different chunk.
  core::FlayService small(checked);
  opts.chunkSize = 32;
  small.bulkLoad(stream, opts);
  EXPECT_EQ(small.stateDigest(), svc.stateDigest());
}

TEST(BulkParity, NonInsertUpdatesInvalidateFilterAndStayConsistent) {
  auto checked = load("scion");
  std::vector<Update> stream = net::scionCommonConfig();
  for (const auto& u : net::scionV4Config(4)) stream.push_back(u);
  auto burst = net::scionV4RouteBurst(150);
  // Inserts past the threshold, then a default-action flip on the same
  // table (a shape change inside a chunk), then more inserts.
  for (size_t i = 0; i < 120; ++i) stream.push_back(burst[i]);
  stream.push_back(
      Update::setDefault("ScionIngress.v4_t01", "v4_hop", {BitVec(16, 9)}));
  for (size_t i = 120; i < burst.size(); ++i) stream.push_back(burst[i]);

  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 32;
  svc.bulkLoad(stream, opts);
  EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, stream));
}

TEST(BulkParity, DuplicateInsertsAreRejectedLikeSequentialReplay) {
  auto checked = load("scion");
  std::vector<Update> stream = net::scionCommonConfig();
  auto burst = net::scionV4RouteBurst(60);
  for (const auto& u : burst) stream.push_back(u);
  for (size_t i = 0; i < 10; ++i) stream.push_back(burst[i]);  // duplicates

  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 16;
  auto rep = svc.bulkLoad(stream, opts);
  EXPECT_EQ(rep.rejected, 10u);
  EXPECT_EQ(rep.applied, stream.size() - 10);
  EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, stream));
}

// --- eclipsed entries at and past the threshold ---------------------------

// A wide high-priority rule, an exact entry it eclipses, and one outside its
// cover, then enough eclipsed entries to cross the over-approximation
// threshold: below it the shape drops the eclipsed entries' actions, above
// it the counts keep every installed action. Whatever the chunking, the
// bulk path must land where a sequential replay does.
TEST(BulkPrefilter, UncoveredExactEntryIsAnalyzed) {
  auto checked = load("middleblock");
  std::vector<Update> stream;
  stream.push_back(Update::insert(
      "MbIngress.acl_pre_ingress",
      aclEntry(0x0A000000u, 0xFF000000u, 0xC0A80000u, 0xFFFF0000u, 100)));
  // Same shape but outside the wide rule's source cover.
  stream.push_back(Update::insert(
      "MbIngress.acl_pre_ingress",
      aclEntry(0x0B010203u, 0xFFFFFFFFu, 0xC0A80101u, 0xFFFFFFFFu, 5)));
  {
    core::FlayService svc(checked);
    auto rep = svc.bulkLoad(stream, {});
    EXPECT_EQ(rep.applied, 2u);
    EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, stream));
  }

  // Fully exact-valued, inside the wide rule's cover at lower priority.
  stream.push_back(Update::insert(
      "MbIngress.acl_pre_ingress",
      aclEntry(0x0A010203u, 0xFFFFFFFFu, 0xC0A80101u, 0xFFFFFFFFu, 5)));
  for (uint32_t i = 0; i < 400; ++i) {
    stream.push_back(Update::insert(
        "MbIngress.acl_pre_ingress",
        aclEntry(0x0A000000u + i, 0xFFFFFFFFu, 0xC0A80101u, 0xFFFFFFFFu, 5)));
  }
  std::string want = sequentialDigest(checked, stream);
  for (size_t chunkSize : {size_t{1}, size_t{64}, size_t{4096}}) {
    core::FlayService svc(checked);
    core::BulkLoadOptions opts;
    opts.chunkSize = chunkSize;
    auto rep = svc.bulkLoad(stream, opts);
    EXPECT_EQ(rep.applied, stream.size()) << "chunks of " << chunkSize;
    EXPECT_EQ(svc.stateDigest(), want) << "chunks of " << chunkSize;
  }
}

// --- chunk report consistency ----------------------------------------------

TEST(BulkChunks, CallbackTotalsMatchReportAndStreamOrder) {
  auto checked = load("scion");
  std::vector<Update> stream = net::scionCommonConfig();
  for (const auto& u : net::scionV4RouteBurst(130)) stream.push_back(u);

  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 32;
  opts.collectApplied = true;
  size_t updates = 0, applied = 0, rejected = 0;
  std::vector<Update> collected;
  size_t lastChunkIndex = 0;
  auto rep = svc.bulkLoad(stream, opts, [&](const core::BulkChunkVerdict& c) {
    EXPECT_LE(c.updates, opts.chunkSize);
    EXPECT_EQ(c.chunkIndex, lastChunkIndex++);
    EXPECT_EQ(c.applied + c.rejected, c.updates);
    EXPECT_EQ(c.appliedUpdates.size(), c.applied);
    updates += c.updates;
    applied += c.applied;
    rejected += c.rejected;
    for (const auto& u : c.appliedUpdates) collected.push_back(u);
  });
  EXPECT_EQ(rep.updates, stream.size());
  EXPECT_EQ(updates, rep.updates);
  EXPECT_EQ(applied, rep.applied);
  EXPECT_EQ(rejected, rep.rejected);
  EXPECT_EQ(rep.chunks, (stream.size() + opts.chunkSize - 1) / opts.chunkSize);
  // collectApplied hands back exactly the applied stream, in order —
  // replaying it sequentially reproduces the bulk-loaded state.
  EXPECT_EQ(collected.size(), rep.applied);
  EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, collected));
}

TEST(BulkChunks, VerdictAggregationSeesRecompileFromAnyChunk) {
  auto checked = load("scion");
  std::vector<Update> stream = net::scionCommonConfig();
  for (const auto& u : net::scionV4Config(4)) stream.push_back(u);
  // IPv6 enablement lands in a later chunk; the aggregated report must
  // still surface the recompilation verdict.
  for (const auto& u : net::scionV4RouteBurst(40)) stream.push_back(u);
  for (const auto& u : net::scionV6Config(8)) stream.push_back(u);

  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 16;
  auto rep = svc.bulkLoad(stream, opts);
  EXPECT_TRUE(rep.needsRecompilation);
  EXPECT_FALSE(rep.changedComponents.empty());
}

TEST(BulkChunks, EmptyStreamProducesEmptyReport) {
  auto checked = load("scion");
  core::FlayService svc(checked);
  auto rep = svc.bulkLoad({}, {});
  EXPECT_EQ(rep.updates, 0u);
  EXPECT_EQ(rep.chunks, 0u);
  EXPECT_FALSE(rep.needsRecompilation);
}

// --- bulkroute workload generator ------------------------------------------

TEST(BulkWorkload, BulkRouteStreamIsDuplicateFree) {
  auto checked = load("bulkroute");
  core::FlayService svc(checked);
  core::BulkLoadOptions opts;
  opts.chunkSize = 512;
  size_t next = 0;
  auto rep = svc.applyStream(
      [&]() -> std::optional<runtime::Update> {
        if (next >= 3000) return std::nullopt;
        return net::bulkRouteUpdate(next++);
      },
      opts);
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_EQ(rep.applied, 3000u);
  std::vector<Update> stream;
  for (size_t i = 0; i < 3000; ++i) stream.push_back(net::bulkRouteUpdate(i));
  EXPECT_EQ(svc.stateDigest(), sequentialDigest(checked, stream));
}

}  // namespace
