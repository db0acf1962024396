// Streaming bulk-load experiment: sustained update rate and per-chunk
// verdict latency of FlayService::applyStream at 10k/100k/1M entries, plus
// the parity contract of the chunked path — it must land digest-identical
// to a sequential applyUpdate replay of the same stream (rejections
// skipped) on every program.
//
// Usage: bench_bulk_load [count...]   (default: 10000 100000 1000000)
// Sequential-replay parity at each scale count is checked up to
// kSeqParityCap entries (the replay analyzes every update, so it is
// linear but slower than the chunked path). When the counts span at least
// 10x, the rate at the largest count must stay within 2x of the rate at
// the smallest: the per-chunk analysis is O(actions + keys) per table
// above the over-approximation threshold, so the rate must not decay with
// the installed entry count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "flay/engine.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "obs/bench_report.h"
#include "obs/obs.h"

namespace p4 = flay::p4;
namespace net = flay::net;
namespace runtime = flay::runtime;
namespace core = flay::flay;
namespace obs = flay::obs;

namespace {

constexpr size_t kSeqParityCap = 100000;
/// Scaling gate: rate at the largest count over the rate at the smallest.
constexpr double kMinRateRatio = 0.5;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ParityResult {
  bool match = false;
  uint64_t rejected = 0;
  double bulkSecs = 0;
  double seqSecs = 0;
};

/// Applies `base` then runs `stream` through both paths on twin services:
/// bulk (chunked) vs sequential applyUpdate with rejections skipped. The
/// state digests must agree bit-for-bit.
ParityResult checkParity(const p4::CheckedProgram& checked,
                         const std::vector<runtime::Update>& base,
                         const std::vector<runtime::Update>& stream,
                         size_t chunkSize) {
  ParityResult r;
  core::FlayService bulkSvc(checked);
  core::FlayService seqSvc(checked);
  for (const auto& u : base) {
    bulkSvc.applyUpdate(u);
    seqSvc.applyUpdate(u);
  }

  core::BulkLoadOptions opts;
  opts.chunkSize = chunkSize;
  auto t0 = std::chrono::steady_clock::now();
  core::BulkLoadReport rep = bulkSvc.bulkLoad(stream, opts);
  r.bulkSecs = secondsSince(t0);
  r.rejected = rep.rejected;

  auto t1 = std::chrono::steady_clock::now();
  for (const auto& u : stream) {
    try {
      seqSvc.applyUpdate(u);
    } catch (const std::invalid_argument&) {
      // Same skip contract as the bulk path.
    }
  }
  r.seqSecs = secondsSince(t1);
  r.match = bulkSvc.stateDigest() == seqSvc.stateDigest();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> counts;
  for (int i = 1; i < argc; ++i) {
    counts.push_back(std::strtoull(argv[i], nullptr, 10));
  }
  if (counts.empty()) counts = {10000, 100000, 1000000};

  std::vector<std::pair<std::string, double>> metrics;
  bool ok = true;

  // --- Parity phase: three programs, three table shapes -------------------
  std::printf("bulk-vs-sequential parity (chunks of 128):\n");
  struct ParityCase {
    const char* program;
    std::vector<runtime::Update> base;
    std::vector<runtime::Update> stream;
  };
  std::vector<ParityCase> cases;
  {
    ParityCase scion;
    scion.program = "scion";
    scion.base = net::scionCommonConfig();
    for (const auto& u : net::scionV4Config(4)) scion.base.push_back(u);
    scion.stream = net::scionV4RouteBurst(1500);
    cases.push_back(std::move(scion));

    // dash: 5-exact-key flow table entries straight from the entry fuzzer.
    ParityCase dash;
    dash.program = "dash";
    p4::CheckedProgram checked =
        p4::loadProgramFromFile(net::programPath("dash"));
    runtime::DeviceConfig cfg(checked);
    net::EntryFuzzer fuzzer(7);
    for (auto& e :
         fuzzer.uniqueEntries(cfg.table("DashIngress.flow_table"), 400)) {
      dash.stream.push_back(
          runtime::Update::insert("DashIngress.flow_table", std::move(e)));
    }
    cases.push_back(std::move(dash));

    ParityCase mb;
    mb.program = "middleblock";
    mb.stream = net::middleblockAclEntries(400);
    cases.push_back(std::move(mb));
  }
  for (const auto& c : cases) {
    p4::CheckedProgram checked =
        p4::loadProgramFromFile(net::programPath(c.program));
    ParityResult r = checkParity(checked, c.base, c.stream, 128);
    std::printf("  %-12s %zu updates: %s (rejected %llu, bulk %.3fs vs seq "
                "%.3fs)\n",
                c.program, c.stream.size(),
                r.match ? "digest match" : "DIGEST MISMATCH",
                static_cast<unsigned long long>(r.rejected), r.bulkSecs,
                r.seqSecs);
    metrics.emplace_back(std::string("parity_") + c.program,
                         r.match ? 1.0 : 0.0);
    ok &= r.match;
  }

  // --- Scale phase: bulkroute streams -------------------------------------
  p4::CheckedProgram bulkroute =
      p4::loadProgramFromFile(net::programPath("bulkroute"));
  std::printf("\nbulkroute streaming load (chunks of 4096):\n");
  std::vector<std::pair<size_t, double>> rates;
  for (size_t count : counts) {
    core::FlayService svc(bulkroute);
    core::BulkLoadOptions opts;
    opts.chunkSize = 4096;
    obs::Histogram verdictLatency;
    size_t next = 0;
    auto t0 = std::chrono::steady_clock::now();
    core::BulkLoadReport rep = svc.applyStream(
        [&]() -> std::optional<runtime::Update> {
          if (next >= count) return std::nullopt;
          return net::bulkRouteUpdate(next++);
        },
        opts,
        [&](const core::BulkChunkVerdict& chunk) {
          verdictLatency.record(chunk.verdictLatencyUs);
        });
    double secs = secondsSince(t0);
    double rate = secs > 0 ? rep.updates / secs : 0.0;
    unsigned long long p99 =
        static_cast<unsigned long long>(verdictLatency.quantile(0.99));
    std::printf("  %8zu entries: %9.0f updates/s, verdict p50=%lluus "
                "p99=%lluus, rejected %llu\n",
                count, rate,
                static_cast<unsigned long long>(verdictLatency.quantile(0.5)),
                p99, static_cast<unsigned long long>(rep.rejected));
    rates.emplace_back(count, rate);

    std::string suffix = std::to_string(count);
    metrics.emplace_back("updates_per_sec_" + suffix, rate);
    metrics.emplace_back("p99_verdict_us_" + suffix,
                         static_cast<double>(p99));
    metrics.emplace_back("chunks_" + suffix, static_cast<double>(rep.chunks));

    if (count <= kSeqParityCap) {
      std::vector<runtime::Update> stream;
      stream.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        stream.push_back(net::bulkRouteUpdate(i));
      }
      ParityResult r = checkParity(bulkroute, {}, stream, opts.chunkSize);
      std::printf("           sequential-replay parity: %s "
                  "(bulk %.3fs vs seq %.3fs)\n",
                  r.match ? "digest match" : "DIGEST MISMATCH", r.bulkSecs,
                  r.seqSecs);
      metrics.emplace_back("parity_" + suffix, r.match ? 1.0 : 0.0);
      ok &= r.match;
    }
  }

  // Scaling gate: a rate that decays with the installed entry count means
  // some per-chunk step went back to scanning the whole table.
  if (!rates.empty()) {
    auto [lo, hi] = std::minmax_element(
        rates.begin(), rates.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (hi->first >= 10 * lo->first) {
      double ratio = lo->second > 0 ? hi->second / lo->second : 0.0;
      bool scales = ratio >= kMinRateRatio;
      std::printf("\nscaling: %.0f updates/s at %zu vs %.0f at %zu "
                  "(%.2fx, gate >= %.2fx): %s\n",
                  hi->second, hi->first, lo->second, lo->first, ratio,
                  kMinRateRatio, scales ? "ok" : "FAIL");
      metrics.emplace_back("rate_ratio_largest_to_smallest", ratio);
      if (!scales) {
        std::fprintf(stderr,
                     "FAIL: bulk rate at %zu entries is %.2fx the rate at "
                     "%zu (gate %.2fx)\n",
                     hi->first, ratio, lo->first, kMinRateRatio);
        ok = false;
      }
    }
  }

  obs::writeBenchReport("bulk_load", metrics);
  if (!ok) {
    std::fprintf(stderr, "FAIL: bulk load gate failed (see above)\n");
    return 1;
  }
  return 0;
}
