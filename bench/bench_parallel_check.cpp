// Parallel semantics-check engine on the SCION burst workload: how much do
// (a) running the specializer's constantness probes across worker threads
// and (b) the engine's verdict memo buy on a full specialize pass?
// Reports the serial-vs-parallel speedup on cold passes, the cold-vs-warm
// speedup, and the warm-pass memo hit rate, including after an update burst
// has respecialized components.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "flay/engine.h"
#include "flay/specializer.h"
#include "net/workloads.h"
#include "obs/bench_report.h"
#include "obs/obs.h"

namespace {

double medianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  namespace p4 = flay::p4;
  namespace net = flay::net;
  namespace core = flay::flay;
  namespace obs = flay::obs;

  constexpr int kReps = 5;
  const size_t jobs =
      std::max<size_t>(2, std::thread::hardware_concurrency());

  p4::CheckedProgram checked =
      p4::loadProgramFromFile(net::programPath("scion"));
  // A service loaded with the workload config whose verdict memo has never
  // been asked anything: every pass on it is cold.
  auto freshService = [&checked] {
    auto service = std::make_unique<core::FlayService>(checked);
    for (const auto& u : net::scionCommonConfig()) service->applyUpdate(u);
    for (const auto& u : net::scionV4Config(4)) service->applyUpdate(u);
    for (const auto& u : net::scionV6Config(16)) service->applyUpdate(u);
    return service;
  };

  auto timedSpecialize = [](core::FlayService& service, size_t j) {
    core::SpecializerOptions sopts;
    sopts.jobs = j;
    auto t0 = std::chrono::steady_clock::now();
    core::SpecializationResult r = core::Specializer(service, sopts).specialize();
    double ms = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count() /
                1000.0;
    return std::pair<double, core::SpecializationResult>(ms, std::move(r));
  };

  std::printf("parallel semantics-check engine, SCION workload (%zu jobs)\n\n",
              jobs);

  // --- Serial vs parallel on cold passes: pure probe-concurrency speedup.
  std::vector<double> serial, parallel;
  size_t queries = 0;
  for (int i = 0; i < kReps; ++i) {
    auto service = freshService();
    auto [ms, r] = timedSpecialize(*service, 1);
    serial.push_back(ms);
    queries = r.stats.solverQueries;
  }
  for (int i = 0; i < kReps; ++i) {
    auto service = freshService();
    parallel.push_back(timedSpecialize(*service, jobs).first);
  }
  double serialMs = medianMs(serial);
  double parallelMs = medianMs(parallel);
  double speedup = parallelMs > 0 ? serialMs / parallelMs : 0;
  std::printf("cold full specialize, %zu solver queries per pass:\n", queries);
  std::printf("  jobs=1:  %8.2f ms (median of %d)\n", serialMs, kReps);
  std::printf("  jobs=%zu: %8.2f ms  -> %.2fx speedup\n", jobs, parallelMs,
              speedup);

  // --- Cold vs warm memo, serial: pure memo speedup + hit rate. ----------
  auto service = freshService();
  obs::Registry::global().reset();
  double coldMs = timedSpecialize(*service, 1).first;
  std::vector<double> warm;
  for (int i = 0; i < kReps; ++i) {
    warm.push_back(timedSpecialize(*service, 1).first);
  }
  double warmMs = medianMs(warm);
  uint64_t hits = obs::Registry::global().counter("cache.hits").value();
  uint64_t misses = obs::Registry::global().counter("cache.misses").value();
  double hitRate =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  std::printf("\nverdict memo (jobs=1):\n");
  std::printf("  cold pass:           %8.2f ms\n", coldMs);
  std::printf("  warm pass:           %8.2f ms  -> %.2fx speedup\n", warmMs,
              warmMs > 0 ? coldMs / warmMs : 0);
  std::printf("  hit rate:            %8.1f %% (%llu hits / %llu lookups)\n",
              hitRate * 100.0, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(hits + misses));

  // --- Update burst: only respecialized expressions miss. ----------------
  auto burst = net::scionV4RouteBurst(200);
  service->applyBatch(burst);
  obs::Registry::global().reset();
  double postUpdateMs = timedSpecialize(*service, 1).first;
  hits = obs::Registry::global().counter("cache.hits").value();
  misses = obs::Registry::global().counter("cache.misses").value();
  double postUpdateHitRate =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  std::printf("\nafter a %zu-route update burst:\n", burst.size());
  std::printf("  specialize:          %8.2f ms\n", postUpdateMs);
  std::printf("  hit rate:            %8.1f %% (unchanged points stay warm)\n",
              postUpdateHitRate * 100.0);

  // --- Combined: parallel + warm memo, the production configuration. -----
  std::vector<double> combined;
  for (int i = 0; i < kReps; ++i) {
    combined.push_back(timedSpecialize(*service, jobs).first);
  }
  double combinedMs = medianMs(combined);
  std::printf("\n  jobs=%zu, warm memo: %8.2f ms  -> %.2fx vs serial cold\n",
              jobs, combinedMs, combinedMs > 0 ? serialMs / combinedMs : 0);

  flay::obs::writeBenchReport(
      "parallel_check",
      {{"jobs", static_cast<double>(jobs)},
       {"solver_queries", static_cast<double>(queries)},
       {"serial_ms", serialMs},
       {"parallel_ms", parallelMs},
       {"parallel_speedup", speedup},
       {"cold_cache_ms", coldMs},
       {"warm_cache_ms", warmMs},
       {"warm_speedup", warmMs > 0 ? coldMs / warmMs : 0},
       {"cache_hit_rate", hitRate},
       {"post_update_hit_rate", postUpdateHitRate},
       {"combined_ms", combinedMs}});
  return 0;
}
