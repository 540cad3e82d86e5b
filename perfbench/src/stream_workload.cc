// Workload `stream`, measured only in the traced run: a StreamDriver
// retrains, builds the tower store, publishes and rolling-reloads a 2-shard
// store-backed fleet behind rrre_routed (serve::Router), one generation per
// arena partition, while an open-loop read stream — mostly pair requests, a
// fixed share of bare-user catalog requests — goes through the router. Its
// read latencies are not steady enough on a shared host to judge a change
// by, so it has no end-to-end metrics; its layers are timed here.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/strings.h"
#include "core/config.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "data/adversary.h"
#include "data/profiles.h"
#include "measure.h"
#include "obs/trace.h"
#include "openloop.h"
#include "serve/router.h"
#include "serve/server.h"
#include "stream/driver.h"
#include "stream/publish.h"

namespace perfbench {
namespace {

namespace core = rrre::core;
namespace data = rrre::data;
namespace serve = rrre::serve;
namespace stream = rrre::stream;
using rrre::common::StrFormat;

constexpr double kScale = 0.3;
constexpr int64_t kDaysPerPartition = 61;  ///< 730-day horizon: 12 parts.
/// Held-out reviews per partition; the library's default (a fifth of the
/// partition, at least 32) is too few for a steady AUC.
constexpr int64_t kEvalReviews = 300;
constexpr int64_t kColdEpochs = 3;
constexpr int64_t kEpochsPerPartition = 1;
constexpr int kShards = 2;
constexpr double kReadRate = 2000.0;
/// The router answers each connection's requests one at a time, a backend
/// round trip (about the 1 ms batch linger) each, so one connection carries
/// under 1 000 reads/s. Eight keep each at about a quarter of that: with
/// four, queueing at the router amplified every host hiccup in p50.
constexpr int kReadConnections = 8;
constexpr double kCatalogShare = 0.02;

data::AdversaryConfig ArenaConfig(uint64_t seed) {
  data::AdversaryConfig config;
  config.profile = data::YelpChiProfile(kScale);
  config.days_per_partition = kDaysPerPartition;
  config.seed = seed;
  config.eval_reviews_per_partition = kEvalReviews;
  // The default schedule: static campaigns throughout. Evasion tiers make
  // quality a property of the drawn world more than of the code (AUC ran
  // 0.58-0.83 across seeds with escalation), and this workload measures the
  // retrain loop beside reads, not detection lag.
  return config;
}

stream::StreamOptions DriverOptions(uint64_t seed, const std::string& root) {
  stream::StreamOptions options;
  options.config.epochs = kColdEpochs;
  options.config.seed = seed;
  options.config.shard_size = 8;
  options.epochs_per_partition = kEpochsPerPartition;
  options.publish_root = root;
  return options;
}

/// A running generation-0 deployment: the driver that published it, the
/// fleet serving `<root>/current`, and the router in front.
struct Deployment {
  std::unique_ptr<data::AdversaryModel> arena;
  std::unique_ptr<stream::StreamDriver> driver;
  std::vector<std::unique_ptr<serve::Server>> fleet;
  std::unique_ptr<serve::Router> router;
  std::string root;
  double seconds = 0.0;

  void Shutdown() {
    if (router) router->Shutdown();
    for (auto& server : fleet) server->Shutdown();
  }
};

Deployment Deploy(uint64_t seed, const std::string& root) {
  Deployment d;
  d.root = root;
  std::filesystem::remove_all(root);
  const Clock::time_point start = Clock::now();
  d.arena = std::make_unique<data::AdversaryModel>(ArenaConfig(seed));
  stream::StreamOptions options = DriverOptions(seed, root);
  d.driver = std::make_unique<stream::StreamDriver>(d.arena.get(), options);
  RRRE_CHECK_OK(d.driver->Recover());
  RRRE_CHECK_OK(d.driver->Step(nullptr));

  serve::ServerOptions server_options;
  server_options.config = options.config;
  server_options.model_prefix = stream::CurrentPath(root, "ckpt");
  server_options.store_path = stream::CurrentPath(root, "ckpt.tower_store");
  serve::RouterOptions router_options;
  for (int i = 0; i < kShards; ++i) {
    auto server = serve::Server::Start(server_options);
    RRRE_CHECK_OK(server.status());
    router_options.backends.push_back({"127.0.0.1", server.value()->port()});
    d.fleet.push_back(std::move(server).ValueOrDie());
  }
  auto router = serve::Router::Start(router_options);
  RRRE_CHECK_OK(router.status());
  d.router = std::move(router).ValueOrDie();
  d.seconds = SecondsSince(start);
  return d;
}

/// The `key=` field of a STATS line, or "" when absent.
std::string StatsField(uint16_t port, const std::string& key) {
  auto socket = rrre::common::Socket::Connect("127.0.0.1", port);
  if (!socket.ok()) return "";
  rrre::common::Socket conn = std::move(socket).ValueOrDie();
  (void)conn.SetRecvTimeout(5000);
  rrre::common::LineReader reader(&conn);
  if (!conn.SendAll("STATS\n").ok()) return "";
  auto line = reader.ReadLine();
  if (!line.ok() || !line.value().has_value()) return "";
  for (const std::string& field : rrre::common::Split(*line.value(), '\t')) {
    if (rrre::common::StartsWith(field, key + "=")) {
      return field.substr(key.size() + 1);
    }
  }
  return "";
}

/// One generation's parts, re-run outside the StreamDriver through the same
/// public calls Step makes: ResumeWith on the next partition's corpus, Save
/// + WriteManifest + UpdateCurrentLink, and BuildTowerStore, into a shadow
/// publish root so the serving fleet is untouched.
void ShadowGeneration(const Deployment& d, const stream::StreamOptions& base,
                      int64_t partition, Report& report) {
  const std::string live = stream::GenerationDir(d.root, partition - 1);
  const std::string shadow_root = d.root + "-shadow";
  std::filesystem::remove_all(shadow_root);
  const data::ReviewDataset cumulative = d.arena->CumulativeThrough(partition);

  // Untraced and traced retrain from the same checkpoint: the traced one
  // gives the tracing overhead and must land on the same parameters. The
  // untraced one is then published.
  core::RrreTrainer trainer(base.config);
  core::RrreTrainer traced(base.config);
  RRRE_CHECK_OK(trainer.Load(live + "/ckpt"));
  RRRE_CHECK_OK(traced.Load(live + "/ckpt"));
  const Clock::time_point resume0 = Clock::now();
  RRRE_CHECK_OK(trainer.ResumeWith(cumulative, base.epochs_per_partition));
  const double resume_s = SecondsSince(resume0);
  rrre::obs::SetProfilingEnabled(true);
  const Clock::time_point traced0 = Clock::now();
  RRRE_CHECK_OK(traced.ResumeWith(cumulative, base.epochs_per_partition));
  const double traced_s = SecondsSince(traced0);
  rrre::obs::SetProfilingEnabled(false);
  const uint64_t fingerprint = ParamsFingerprint(trainer);
  const uint64_t traced_fingerprint = ParamsFingerprint(traced);
  report.Check("fingerprint_traced", fingerprint == traced_fingerprint,
               StrFormat("shadow retrain %016llx traced %016llx",
                         static_cast<unsigned long long>(fingerprint),
                         static_cast<unsigned long long>(traced_fingerprint)));
  report.Layer("core.trainer.resume_s", resume_s, "s");
  report.Layer("trace.overhead_pct", (traced_s / resume_s - 1.0) * 100.0, "%");

  const std::string dir = stream::GenerationDir(shadow_root, partition);
  const std::string prefix = dir + "/ckpt";
  RRRE_CHECK_OK(rrre::common::EnsureDir(dir));
  const Clock::time_point save0 = Clock::now();
  RRRE_CHECK_OK(trainer.Save(prefix));
  const double save_s = SecondsSince(save0);
  const Clock::time_point store0 = Clock::now();
  auto built = core::BuildTowerStore(trainer, prefix, prefix + ".tower_store");
  RRRE_CHECK_OK(built.status());
  report.Layer("core.tower_store.build_s", SecondsSince(store0), "s");

  const Clock::time_point publish0 = Clock::now();
  stream::Manifest m;
  m.generation = partition;
  m.partition = partition;
  m.epochs_completed = trainer.epochs_completed();
  m.store = "ckpt.tower_store";
  for (const std::string& suffix :
       core::RrreTrainer::CheckpointSuffixes(/*with_optimizer=*/true)) {
    m.files.push_back("ckpt" + suffix);
  }
  m.files.push_back(m.store);
  auto fp = core::CheckpointParamsFingerprint(prefix);
  RRRE_CHECK_OK(fp.status());
  m.params_fingerprint = fp.value();
  RRRE_CHECK_OK(stream::WriteManifest(dir, m));
  RRRE_CHECK_OK(stream::UpdateCurrentLink(shadow_root, partition));
  report.Layer("stream.publish_s", save_s + SecondsSince(publish0), "s");
  std::filesystem::remove_all(shadow_root);
}

}  // namespace

void RunStream(const RunOptions& options, Report& report) {
  Deployment d = Deploy(options.seed, options.workdir + "/publish");
  report.Info("setup_s", d.seconds);
  const stream::StreamOptions base = DriverOptions(options.seed, d.root);
  // The driver that published generation 0 continues; from here on it
  // reloads the fleet through the router after every publish.
  stream::StreamOptions live = base;
  live.reload_endpoints = {{"127.0.0.1", d.router->port()}};
  d.driver = std::make_unique<stream::StreamDriver>(d.arena.get(), live);
  RRRE_CHECK_OK(d.driver->Recover());

  // Read population: the (user, item) pairs of the first partition.
  OpenLoopOptions reads;
  reads.port = d.router->port();
  reads.connections = kReadConnections;
  reads.rate = kReadRate;
  reads.seconds = 170.0;  // Cap; the phase ends when the last Step does.
  reads.seed = options.seed + 3;
  const data::ReviewDataset first = d.arena->Partition(0);
  for (const data::Review& r : first.reviews()) {
    reads.pairs.emplace_back(r.user, r.item);
  }
  reads.catalog_share = kCatalogShare;
  reads.num_users = d.arena->num_users();
  reads.num_items = d.arena->num_items();
  std::atomic<bool> stop{false};
  reads.stop = &stop;
  const serve::RouterStats router_before = d.router->stats();

  OpenLoopResult read_result;
  std::thread reader([&] { read_result = RunOpenLoop(reads); });
  std::vector<double> step_s;
  int64_t steps_failed = 0;

  // Reads run alone briefly first, so the first Step meets a warm fleet.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  while (!d.driver->Done()) {
    const Clock::time_point start = Clock::now();
    stream::GenerationResult result;
    const bool ok = d.driver->Step(&result).ok() && result.reloaded;
    step_s.push_back(SecondsSince(start));
    if (!ok) {
      ++steps_failed;
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  reader.join();
  const serve::RouterStats router_after = d.router->stats();

  // Output checks: the fleet serves the last manifest's parameters.
  auto latest = stream::LatestGeneration(d.root);
  const uint64_t manifest_fp =
      latest.ok() ? latest.value().first.params_fingerprint : 0;
  const std::string want = std::to_string(manifest_fp);
  bool fleet_ok = latest.ok() && steps_failed == 0;
  std::string detail = StrFormat("manifest %llu:",
                                 static_cast<unsigned long long>(manifest_fp));
  for (const auto& server : d.fleet) {
    const std::string got = StatsField(server->port(), "fingerprint");
    fleet_ok = fleet_ok && got == want;
    detail += " shard " + got;
  }
  const std::string routed = StatsField(d.router->port(), "fingerprint");
  fleet_ok = fleet_ok && routed == want;
  detail += " router " + routed;
  report.Check("fleet_fingerprint", fleet_ok, detail);
  const std::string quarantined =
      StatsField(d.router->port(), "quarantined");
  report.Check("no_quarantine", quarantined == "0",
               "quarantined=" + quarantined);
  report.Check("generations",
               steps_failed == 0 &&
                   static_cast<int64_t>(step_s.size()) ==
                       d.arena->num_partitions() - 1,
               StrFormat("%zu timed generations, %lld failed", step_s.size(),
                         static_cast<long long>(steps_failed)));

  const Summary pairs = Summarize(read_result.pair_latency_us);
  const Summary catalog = Summarize(read_result.catalog_latency_us);
  std::fprintf(stderr,
               "[stream] %zu generations, median %.3f s; reads n=%lld p50 "
               "%.1f p99 %.1f us, failed %lld\n",
               step_s.size(), Median(step_s),
               static_cast<long long>(read_result.attempted), pairs.p50,
               pairs.p99, static_cast<long long>(read_result.failed));
  report.Count(read_result.attempted + static_cast<int64_t>(step_s.size()),
               read_result.failed + steps_failed);
  report.Info("read_rate", kReadRate);
  report.Info("catalog_share", kCatalogShare);
  report.Info("reads", static_cast<double>(read_result.attempted));
  report.Info("read_p50_us", pairs.p50);
  report.Info("read_p99_us", pairs.p99);
  report.Info("read_tail_pct", pairs.tail_pct);
  report.Info("read_tail_us", pairs.tail);
  report.Info("generations", static_cast<double>(step_s.size()));
  report.Info("generation_s", Median(step_s));
  report.Info("read_late_us_p99", Summarize(read_result.late_us).p99);

  ShadowGeneration(d, base, d.arena->num_partitions() - 1, report);
  std::vector<double> reload_ms;
  for (int i = 0; i < 3; ++i) {
    reload_ms.push_back(
        ControlRoundTrip(d.router->port(), "RELOAD", "#reloaded") * 1e3);
  }
  report.Layer("serve.router.reload_ms", Median(reload_ms), "ms");
  // The router answers PING itself, so the hop is measured on a pair
  // request: routed minus direct to the user's home shard, idle fleet.
  const auto& probe = reads.pairs.front();
  const int home = d.router->HomeShard(probe.first);
  const double routed_us = PairRttUs(d.router->port(), probe, 200);
  const double direct_us =
      PairRttUs(d.fleet[static_cast<size_t>(home)]->port(), probe, 200);
  report.Layer("serve.router.hop_us", routed_us - direct_us, "us",
               /*derived=*/true);
  report.Layer("serve.router.catalog_p99_us", catalog.p99, "us");
  report.Info("catalog_samples", static_cast<double>(catalog.n));
  report.Layer("serve.router.fanouts",
               static_cast<double>(router_after.fanouts -
                                   router_before.fanouts),
               "count");
  report.Layer("serve.router.retries",
               static_cast<double>(router_after.retries -
                                   router_before.retries),
               "count");
  report.Layer("serve.router.failovers",
               static_cast<double>(router_after.failovers -
                                   router_before.failovers),
               "count");
  report.Layer("serve.router.upstream_errors",
               static_cast<double>(router_after.upstream_errors -
                                   router_before.upstream_errors),
               "count");
  report.Layer("serve.router.quarantined",
               static_cast<double>(router_after.quarantined), "count");
  int64_t reloads = 0;
  for (const auto& server : d.fleet) reloads += server->stats().batcher.reloads;
  report.Layer("serve.batcher.reloads", static_cast<double>(reloads), "count");
  d.Shutdown();
}

}  // namespace perfbench
