// §4.2 "What influences Flay's update processing speed?" — the burst
// experiment: 1000 fuzzer-generated IPv4 entries inserted into the SCION
// forwarding table are classified as not requiring recompilation within a
// second; a batch enabling the IPv6 paths is correctly flagged.
//
// Doubles as the regression gate for the burst-path config-apply outlier:
// per-update apply latency is recorded individually (not as one
// whole-batch sample), and with the O(1) duplicate/id indexes in
// TableState the burst p99 must stay within 100x of the p50 — the bench
// fails otherwise.

#include <chrono>
#include <cstdio>

#include "flay/engine.h"
#include "net/workloads.h"
#include "obs/bench_report.h"
#include "obs/obs.h"

int main() {
  namespace p4 = flay::p4;
namespace net = flay::net;
namespace runtime = flay::runtime;
namespace core = flay::flay;
namespace obs = flay::obs;
using flay::BitVec;

  p4::CheckedProgram checked =
      p4::loadProgramFromFile(net::programPath("scion"));
  core::FlayService service(checked);
  for (const auto& u : net::scionCommonConfig()) service.applyUpdate(u);
  for (const auto& u : net::scionV4Config(4)) service.applyUpdate(u);

  std::printf("SCION burst handling\n\n");

  // Burst 1: 1000 unique IPv4 routes (semantics-preserving). The per-update
  // apply histogram is scoped to this burst so the p99/p50 gate below
  // measures exactly the phenomenon the outlier lived in.
  obs::Histogram& applyUs =
      obs::Registry::global().histogram("flay.config_apply_us");
  applyUs.reset();
  auto burst = net::scionV4RouteBurst(1000);
  auto t0 = std::chrono::steady_clock::now();
  auto verdict = service.applyBatch(burst);
  auto wallMs = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count() /
                1000.0;
  unsigned long long applyP50 =
      static_cast<unsigned long long>(applyUs.quantile(0.5));
  unsigned long long applyP99 =
      static_cast<unsigned long long>(applyUs.quantile(0.99));
  std::printf("burst of %zu IPv4 route inserts:\n", burst.size());
  std::printf("  wall time (install + analysis): %8.1f ms\n", wallMs);
  std::printf("  analysis time:                  %8.1f ms\n",
              verdict.analysisTime.count() / 1000.0);
  std::printf("  config apply per update:        p50=%lluus p99=%lluus "
              "max=%lluus (%llu samples)\n",
              applyP50, applyP99,
              static_cast<unsigned long long>(applyUs.max()),
              static_cast<unsigned long long>(applyUs.count()));
  std::printf("  recompilation needed:           %8s\n",
              verdict.needsRecompilation ? "YES" : "no");

  // One more incremental update on top of the 1000: the steady-state cost.
  auto single = net::scionV4RouteBurst(1, /*seed=*/999);
  auto v1 = service.applyUpdate(single[0]);
  std::printf("  single follow-up update:        %8.3f ms (recompile: %s)\n",
              v1.analysisTime.count() / 1000.0,
              v1.needsRecompilation ? "YES" : "no");

  // Burst 2: enable the previously-unused IPv6 paths.
  auto v6 = service.applyBatch(net::scionV6Config(16));
  std::printf("\nbatch enabling IPv6 paths (%zu updates):\n",
              net::scionV6Config(16).size());
  std::printf("  analysis time:                  %8.1f ms\n",
              v6.analysisTime.count() / 1000.0);
  std::printf("  recompilation needed:           %8s\n",
              v6.needsRecompilation ? "YES" : "no");
  std::printf("  changed components: ");
  size_t shown = 0;
  for (const auto& c : v6.changedComponents) {
    if (shown++ > 4) {
      std::printf("... (%zu total)", v6.changedComponents.size());
      break;
    }
    std::printf("%s ", c.c_str());
  }

  // Burst 3: the same route burst through the streaming bulk path on a
  // fresh service, analyzed once per chunk instead of once per batch.
  core::FlayService bulkService(checked);
  for (const auto& u : net::scionCommonConfig()) bulkService.applyUpdate(u);
  for (const auto& u : net::scionV4Config(4)) bulkService.applyUpdate(u);
  auto t1 = std::chrono::steady_clock::now();
  core::BulkLoadOptions bulkOpts;
  bulkOpts.chunkSize = 256;
  bulkService.bulkLoad(burst, bulkOpts);
  auto bulkMs = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t1)
                    .count() /
                1000.0;
  std::printf("\nsame burst through the bulk path (chunks of %zu):\n",
              bulkOpts.chunkSize);
  std::printf("  wall time:                      %8.1f ms\n", bulkMs);

  std::printf(
      "\nShape check: the route burst completes well under a second and\n"
      "forwards without recompilation; the IPv6 batch demands it.\n");

  flay::obs::writeBenchReport(
      "burst_updates",
      {{"burst_size", static_cast<double>(burst.size())},
       {"burst_wall_ms", wallMs},
       {"burst_analysis_ms", verdict.analysisTime.count() / 1000.0},
       {"burst_recompile", verdict.needsRecompilation ? 1.0 : 0.0},
       {"config_apply_p50_us", static_cast<double>(applyP50)},
       {"config_apply_p99_us", static_cast<double>(applyP99)},
       {"single_update_ms", v1.analysisTime.count() / 1000.0},
       {"v6_batch_analysis_ms", v6.analysisTime.count() / 1000.0},
       {"v6_batch_recompile", v6.needsRecompilation ? 1.0 : 0.0},
       {"bulk_wall_ms", bulkMs}});

  // Regression gate for the config-apply outlier: with per-update samples
  // and O(1) duplicate detection, the burst tail must stay the same order
  // as the median (the old O(n) scan put p99 three orders above p50).
  if (applyP99 > 100 * (applyP50 > 0 ? applyP50 : 1)) {
    std::fprintf(stderr,
                 "FAIL: flay.config_apply_us p99 (%lluus) exceeds 100x p50 "
                 "(%lluus) over the burst\n",
                 applyP99, applyP50);
    return 1;
  }
  return 0;
}
