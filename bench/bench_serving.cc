// Online serving bench: trains a bench-scale RRRE model, checkpoints it,
// starts an in-process rrre_served Server on an ephemeral port, and drives it
// with the loadgen client. Reports sustained QPS, round-trip latency
// percentiles and the micro-batcher's realized batch-size distribution, and
// writes the numbers to BENCH_serving.json for tracking across commits.
//
// Runs the identical load twice — once with the metrics registry enabled
// (the production default) and once with it disabled — and reports the QPS
// overhead the instrumentation costs, so the "<3% regression" budget is
// checked on every bench run rather than assumed.
//
// Two further legs measure store-backed serving (core/tower_store.h):
//
//  * same checkpoint, same load, served from a materialized tower store —
//    reported as `store_speedup` (store QPS / live-tower QPS);
//  * a catalog --store_mult (default 100) times larger, store-backed — the
//    scale a live-tower server cannot reach. The leg's p99 should be no
//    worse than live-tower p99 at 1x: the store hot path is O(dim) per pair
//    regardless of catalog size. Only the corpus grows; the prediction-head
//    dimensions stay identical so latencies compare like for like.
//
// A final routed leg drives the identical load through the rrre_routed
// sharding proxy in front of 1, 2 and 4 in-process shards: the 1-shard leg
// measures the pure proxy overhead against direct serving (one extra hop,
// byte-identical responses), the wider fleets how that overhead behaves as
// the consistent-hash fan-out spreads users.
//
//   bench_serving [--scale=0.15] [--connections=8] [--requests=5000]
//                 [--qps=0] [--max_batch=64]
//                 [--store_mult=100] [--routed_shards=4]
//                 [--out=BENCH_serving.json]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/flags.h"
#include "common/io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "serve/loadgen.h"
#include "serve/router.h"
#include "serve/server.h"

namespace {

std::string JsonHistogram(const rrre::common::Histogram& h) {
  return rrre::common::StrFormat(
      "{\"count\": %lld, \"mean\": %.3f, \"p50\": %.1f, \"p95\": %.1f, "
      "\"p99\": %.1f, \"min\": %.1f, \"max\": %.1f}",
      static_cast<long long>(h.count()), h.Mean(), h.Percentile(50.0),
      h.Percentile(95.0), h.Percentile(99.0), h.Min(), h.Max());
}

struct PhaseResult {
  rrre::serve::LoadGenReport report;
  rrre::serve::ServerStats stats;
  std::string metrics_text;  ///< Empty when metrics were disabled.
};

/// One full server lifecycle (start -> loadgen -> drain -> shutdown) so the
/// metrics-on and metrics-off measurements see identical conditions.
PhaseResult RunPhase(const rrre::serve::ServerOptions& server_options,
                     rrre::serve::LoadGenOptions load) {
  using namespace rrre;  // NOLINT(build/namespaces)
  auto server = serve::Server::Start(server_options);
  RRRE_CHECK_OK(server.status());
  load.port = server.value()->port();
  auto report = serve::RunLoadGen(load);
  RRRE_CHECK_OK(report.status());
  PhaseResult out;
  out.report = report.value();
  out.metrics_text = server.value()->RenderMetricsText();
  server.value()->Shutdown();
  out.stats = server.value()->stats();
  return out;
}

struct RoutedResult {
  int shards = 0;
  rrre::serve::LoadGenReport report;
  rrre::serve::RouterStats router_stats;
};

/// One routed lifecycle: N in-process shards behind a Router, the loadgen
/// pointed at the router, everything drained before the next leg.
RoutedResult RunRoutedPhase(const rrre::serve::ServerOptions& server_options,
                            rrre::serve::LoadGenOptions load, int shards) {
  using namespace rrre;  // NOLINT(build/namespaces)
  std::vector<std::unique_ptr<serve::Server>> fleet;
  for (int i = 0; i < shards; ++i) {
    auto server = serve::Server::Start(server_options);
    RRRE_CHECK_OK(server.status());
    fleet.push_back(std::move(server).ValueOrDie());
  }
  serve::RouterOptions router_options;
  for (const auto& server : fleet) {
    router_options.backends.push_back({"127.0.0.1", server->port()});
  }
  router_options.port = 0;
  auto router = serve::Router::Start(router_options);
  RRRE_CHECK_OK(router.status());
  load.port = router.value()->port();
  auto report = serve::RunLoadGen(load);
  RRRE_CHECK_OK(report.status());
  RoutedResult out;
  out.shards = shards;
  out.report = report.value();
  router.value()->Shutdown();
  out.router_stats = router.value()->stats();
  for (auto& server : fleet) server->Shutdown();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrre;  // NOLINT(build/namespaces)
  common::FlagParser flags;
  bench::RegisterBenchFlags(flags, /*default_scale=*/0.15);
  flags.AddString("dataset", "yelpchi", "dataset profile");
  flags.AddInt("connections", 8, "concurrent loadgen connections");
  flags.AddInt("requests", 5000, "total requests across all connections");
  flags.AddDouble("qps", 0.0, "target aggregate rate (0 = closed-loop max)");
  flags.AddInt("max_batch", 64, "server: max expanded pairs per batch");
  flags.AddInt("queue_cap", 1024, "server: admission queue bound");
  flags.AddInt("store_mult", 100,
               "catalog multiplier for the big store-backed leg (0 = skip)");
  flags.AddInt("routed_shards", 4,
               "largest rrre_routed fleet; routed legs run at 1/2/4 shards "
               "capped here (0 = skip)");
  flags.AddString("out", "BENCH_serving.json", "JSON results path");
  RRRE_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  const bench::BenchOptions opts = bench::ReadBenchOptions(flags);

  auto bundle = bench::MakeDataset(flags.GetString("dataset"), opts.scale,
                                   opts.base_seed);
  const core::RrreConfig config =
      bench::DefaultRrreConfig(opts, opts.base_seed);
  std::printf("training on %ld reviews...\n",
              static_cast<long>(bundle.train.size()));
  core::RrreTrainer trainer(config);
  trainer.Fit(bundle.train);
  const std::string prefix = "/tmp/rrre_bench_serving_ckpt";
  RRRE_CHECK_OK(trainer.Save(prefix));

  serve::ServerOptions server_options;
  server_options.config = config;
  server_options.model_prefix = prefix;
  server_options.port = 0;  // Ephemeral.
  server_options.batcher.max_batch = flags.GetInt("max_batch");
  server_options.batcher.queue_capacity = flags.GetInt("queue_cap");
  std::printf("serving %lld users x %lld items\n",
              static_cast<long long>(bundle.train.num_users()),
              static_cast<long long>(bundle.train.num_items()));

  serve::LoadGenOptions load;
  load.connections = flags.GetInt("connections");
  load.total_requests = flags.GetInt("requests");
  load.target_qps = flags.GetDouble("qps");
  load.seed = opts.base_seed;

  // Metrics-off first (the baseline), then the instrumented run the rest of
  // the report describes.
  server_options.enable_metrics = false;
  std::printf("phase 1/5: metrics off...\n");
  const PhaseResult off = RunPhase(server_options, load);
  server_options.enable_metrics = true;
  std::printf("phase 2/5: metrics on...\n");
  const PhaseResult on = RunPhase(server_options, load);

  // Store-backed leg: identical checkpoint and load, profiles served out of
  // the materialized tower store instead of the live towers.
  const std::string store_path = prefix + ".tower_store";
  auto built = core::BuildTowerStore(trainer, prefix, store_path);
  RRRE_CHECK_OK(built.status());
  std::printf("phase 3/5: store-backed (%.1f MiB store, built in %.3fs)...\n",
              static_cast<double>(built.value().bytes) / (1024.0 * 1024.0),
              built.value().seconds);
  server_options.store_path = store_path;
  const PhaseResult store1 = RunPhase(server_options, load);
  server_options.store_path.clear();

  const serve::LoadGenReport& r = on.report;
  const serve::ServerStats& stats = on.stats;
  const double overhead_pct =
      off.report.qps > 0.0 ? (off.report.qps - r.qps) / off.report.qps * 100.0
                           : 0.0;
  const double store_speedup = r.qps > 0.0 ? store1.report.qps / r.qps : 0.0;

  // Big-catalog leg: --store_mult times the corpus, store-backed. Parameter
  // *quality* is irrelevant for a latency bench, so training is cut to the
  // bone (one epoch, no word-vector pretraining, short histories) — but the
  // prediction-head dimensions are untouched, so the per-pair hot path is
  // exactly the 1x leg's and the p99s compare like for like.
  const int64_t store_mult = flags.GetInt("store_mult");
  const std::string big_prefix = "/tmp/rrre_bench_serving_ckpt_big";
  PhaseResult big;
  core::TowerStoreBuildStats big_store_stats;
  int64_t big_users = 0, big_items = 0;
  if (store_mult > 0) {
    auto big_bundle =
        bench::MakeDataset(flags.GetString("dataset"),
                           opts.scale * static_cast<double>(store_mult),
                           opts.base_seed + 1);
    core::RrreConfig big_config = config;
    big_config.epochs = 1;
    big_config.pretrain_word_vectors = false;
    big_config.s_u = 2;
    big_config.s_i = 2;
    big_config.max_tokens = 4;
    big_config.vocab_min_count = 64;
    big_config.batch_size = 512;
    big_users = big_bundle.train.num_users();
    big_items = big_bundle.train.num_items();
    std::printf(
        "phase 4/5: store-backed at %lldx catalog "
        "(%lld users x %lld items)...\n",
        static_cast<long long>(store_mult), static_cast<long long>(big_users),
        static_cast<long long>(big_items));
    core::RrreTrainer big_trainer(big_config);
    big_trainer.Fit(big_bundle.train);
    RRRE_CHECK_OK(big_trainer.Save(big_prefix));
    auto big_built = core::BuildTowerStore(big_trainer, big_prefix,
                                           big_prefix + ".tower_store");
    RRRE_CHECK_OK(big_built.status());
    big_store_stats = big_built.value();
    std::printf("  %lldx store: %.1f MiB, built in %.3fs\n",
                static_cast<long long>(store_mult),
                static_cast<double>(big_store_stats.bytes) / (1024.0 * 1024.0),
                big_store_stats.seconds);
    serve::ServerOptions big_options = server_options;
    big_options.config = big_config;
    big_options.model_prefix = big_prefix;
    big_options.store_path = big_prefix + ".tower_store";
    big = RunPhase(big_options, load);
  }

  // Routed legs: the same live-tower checkpoint and load, behind the
  // rrre_routed sharding proxy at growing fleet widths. The 1-shard leg
  // against `on` is the pure per-hop cost of the proxy.
  std::vector<RoutedResult> routed;
  const int routed_shards = static_cast<int>(flags.GetInt("routed_shards"));
  for (const int shards : {1, 2, 4}) {
    if (shards > routed_shards) continue;
    std::printf("phase 5/5: routed, %d shard%s...\n", shards,
                shards == 1 ? "" : "s");
    routed.push_back(RunRoutedPhase(server_options, load, shards));
  }

  std::printf("\n%lld requests over %lld connections in %.3fs -> %.1f qps\n",
              static_cast<long long>(r.sent),
              static_cast<long long>(load.connections), r.seconds, r.qps);
  std::printf("  scored=%lld overloaded=%lld errors=%lld\n",
              static_cast<long long>(r.scored),
              static_cast<long long>(r.overloaded),
              static_cast<long long>(r.errors));
  std::printf("  latency (us): %s\n", r.latency_us.Summary().c_str());
  std::printf("  batch size (pairs): %s\n",
              stats.batcher.batch_pairs.Summary().c_str());
  std::printf("  batch latency (us): %s\n",
              stats.batcher.batch_latency_us.Summary().c_str());
  std::printf("  metrics off: %.1f qps -> metrics overhead %.2f%%\n",
              off.report.qps, overhead_pct);
  std::printf("  store-backed: %.1f qps (%.2fx live), latency (us): %s\n",
              store1.report.qps, store_speedup,
              store1.report.latency_us.Summary().c_str());
  if (store_mult > 0) {
    std::printf(
        "  store-backed %lldx catalog: %.1f qps, latency (us): %s\n"
        "  %lldx store p99 %.1fus vs live 1x p99 %.1fus\n",
        static_cast<long long>(store_mult), big.report.qps,
        big.report.latency_us.Summary().c_str(),
        static_cast<long long>(store_mult),
        big.report.latency_us.Percentile(99.0), r.latency_us.Percentile(99.0));
  }
  for (const RoutedResult& leg : routed) {
    const double routed_overhead_pct =
        r.qps > 0.0 ? (r.qps - leg.report.qps) / r.qps * 100.0 : 0.0;
    std::printf(
        "  routed %d shard%s: %.1f qps (%.2f%% vs direct), "
        "latency (us): %s\n",
        leg.shards, leg.shards == 1 ? "" : "s", leg.report.qps,
        routed_overhead_pct, leg.report.latency_us.Summary().c_str());
  }

  const std::string json = common::StrFormat(
      "{\n"
      "  \"bench\": \"serving\",\n"
      "  \"dataset\": \"%s\",\n"
      "  \"scale\": %.3f,\n"
      "  \"connections\": %lld,\n"
      "  \"requests\": %lld,\n"
      "  \"target_qps\": %.1f,\n"
      "  \"max_batch\": %lld,\n"
      "  \"seconds\": %.3f,\n"
      "  \"qps\": %.1f,\n"
      "  \"scored\": %lld,\n"
      "  \"overloaded\": %lld,\n"
      "  \"errors\": %lld,\n"
      "  \"latency_us\": %s,\n"
      "  \"batch_pairs\": %s,\n"
      "  \"batch_latency_us\": %s,\n"
      "  \"batches\": %lld,\n"
      "  \"pairs_scored\": %lld,\n"
      "  \"qps_metrics_off\": %.1f,\n"
      "  \"metrics_overhead_pct\": %.2f,\n"
      "  \"store_qps\": %.1f,\n"
      "  \"store_latency_us\": %s,\n"
      "  \"store_batch_latency_us\": %s,\n"
      "  \"store_speedup\": %.3f,\n"
      "  \"store_100x\": %s,\n"
      "  \"routed\": [%s]\n"
      "}\n",
      flags.GetString("dataset").c_str(), opts.scale,
      static_cast<long long>(load.connections),
      static_cast<long long>(load.total_requests), load.target_qps,
      static_cast<long long>(server_options.batcher.max_batch), r.seconds,
      r.qps, static_cast<long long>(r.scored),
      static_cast<long long>(r.overloaded),
      static_cast<long long>(r.errors), JsonHistogram(r.latency_us).c_str(),
      JsonHistogram(stats.batcher.batch_pairs).c_str(),
      JsonHistogram(stats.batcher.batch_latency_us).c_str(),
      static_cast<long long>(stats.batcher.batches),
      static_cast<long long>(stats.batcher.pairs_scored), off.report.qps,
      overhead_pct, store1.report.qps,
      JsonHistogram(store1.report.latency_us).c_str(),
      JsonHistogram(store1.stats.batcher.batch_latency_us).c_str(),
      store_speedup,
      store_mult > 0
          ? common::StrFormat(
                "{\"catalog_mult\": %lld, \"num_users\": %lld, "
                "\"num_items\": %lld, \"store_mib\": %.1f, "
                "\"build_seconds\": %.3f, \"qps\": %.1f, "
                "\"latency_us\": %s}",
                static_cast<long long>(store_mult),
                static_cast<long long>(big_users),
                static_cast<long long>(big_items),
                static_cast<double>(big_store_stats.bytes) / (1024.0 * 1024.0),
                big_store_stats.seconds, big.report.qps,
                JsonHistogram(big.report.latency_us).c_str())
                .c_str()
          : "null",
      [&] {
        std::string legs;
        for (const RoutedResult& leg : routed) {
          if (!legs.empty()) legs += ", ";
          legs += common::StrFormat(
              "{\"shards\": %d, \"qps\": %.1f, "
              "\"qps_per_connection\": %.1f, "
              "\"overhead_pct_vs_direct\": %.2f, \"latency_us\": %s, "
              "\"retries\": %lld, \"failovers\": %lld, "
              "\"upstream_errors\": %lld}",
              leg.shards, leg.report.qps,
              leg.report.qps / static_cast<double>(load.connections),
              r.qps > 0.0 ? (r.qps - leg.report.qps) / r.qps * 100.0 : 0.0,
              JsonHistogram(leg.report.latency_us).c_str(),
              static_cast<long long>(leg.router_stats.retries),
              static_cast<long long>(leg.router_stats.failovers),
              static_cast<long long>(leg.router_stats.upstream_errors));
        }
        return legs;
      }()
          .c_str());
  RRRE_CHECK_OK(common::WriteFile(flags.GetString("out"), json));
  std::printf("\nresults written to %s\n", flags.GetString("out").c_str());

  for (const char* suffix : {".model", ".vocab", ".train.tsv", ".meta",
                             ".optimizer", ".tower_store"}) {
    std::remove((prefix + std::string(suffix)).c_str());
    std::remove((big_prefix + std::string(suffix)).c_str());
  }
  return 0;
}
