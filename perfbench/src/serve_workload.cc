// Workload `serve_pairs`: one store-backed rrre_served (serve::Server with
// library defaults) answering single pair requests from an open-loop
// Poisson schedule over pipelined connections.
//
// Inputs: a checkpoint trained on the yelpchi profile (a fixture, not
// timed) and its held-out reviews, whose (user, item) pairs are the request
// population. Set-up (timed, kSetupRepeats times): build the tower store,
// start the server, answer one PING. Then: a quality pass over every
// held-out pair (checked bitwise against the offline store-backed
// BatchScorer), then the fixed rates and the staircase that gives goodput,
// with the reference rate measured in slices spread through them, each
// after a group of RELOAD round trips.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/socket.h"
#include "common/strings.h"
#include "core/config.h"
#include "core/scorer.h"
#include "core/tower_store.h"
#include "core/trainer.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "measure.h"
#include "obs/trace.h"
#include "openloop.h"
#include "serve/server.h"

namespace perfbench {
namespace {

namespace core = rrre::core;
namespace data = rrre::data;
namespace serve = rrre::serve;
using rrre::common::StrFormat;

/// The served checkpoint is trained on the train workload's corpus size.
constexpr double kScale = 0.6;
constexpr int64_t kFixtureEpochs = 3;
constexpr int kSetupRepeats = 7;
/// RELOAD round trips are timed in groups of this many on the idle server:
/// one group before each reference slice and one after each measurement of
/// the fixed rates and the staircase.
constexpr int kReloadsPerGroup = 3;
/// The reference rate. At 32k req/s a 64-pair batch
/// is about half full at the default linger, and the cores stay busy enough
/// that the host's idle wake-up delays (up to a millisecond at p99 in its
/// noisy stretches) do not set the tail, as they did at 4k.
constexpr double kRefRate = 32000.0;
/// The reference rate is measured in kSlices slices that together last this
/// share of the run's --seconds: one before the fixed rates, then one after
/// every kTrialsPerSlice staircase measurements, so that the reference
/// latencies sample the host through the whole run, not at three moments.
constexpr double kReferenceShare = 0.6;
constexpr int kSlices = 9;
constexpr int kTrialsPerSlice = 5;
/// Fixed rates every run measures once, for the per-layer table: from "a
/// batch never fills" (a 64-pair batch at 2k req/s) to the reference rate.
constexpr double kFixedRates[] = {2000, 8000, 32000};
/// Goodput comes from an up-down staircase of one-second measurements: up
/// by the step after a measurement that meets the limits, down after one
/// that misses, the step shrinking to its square root at every reversal.
/// Near the knee the server's capacity moves with the host (a stall or a
/// busy neighbour tips it into refusing at rates it holds a second later),
/// so one pass over a ladder put the knee anywhere from 95k to 165k req/s.
/// The staircase settles where half the measurements meet the limits, and
/// the mean of its last trials averages over the host's states. It does
/// not go below the reference rate: under that, the host's idle wake-ups
/// rather than queueing set the tail, and in a stretch of VM stalls a
/// staircase without the floor walked down to 1k req/s and stayed there.
constexpr double kStairStart = 64000.0;
constexpr double kStairStep = 1.5;
constexpr double kStairMinStep = 1.04;
constexpr int kStairTrials = 40;
constexpr int kStairAveraged = 32;
/// A staircase measurement the host spoiled is measured again at most this
/// many times in a run, which bounds the run's length.
constexpr int kStairRepeats = 16;
static_assert(kSlices == 1 + kStairTrials / kTrialsPerSlice,
              "one slice before the fixed rates, one per kTrialsPerSlice");
constexpr double kTrialSeconds = 1.0;
/// Percentiles are exact per window, reported as the median window. A
/// window holds about 1250 requests (so its p99 has ten samples beyond it)
/// and lasts at least 50 ms, many batch lingers; a measurement spans at
/// least three windows. Stalls of the whole host of several milliseconds come a
/// few times a second on the VM the limits were fixed on: short windows
/// leave most windows free of them, so the median window shows the server.
double WindowSeconds(double rate) { return std::max(0.05, 1250.0 / rate); }
/// A measurement meets the limit when its p99 (from due time) is at most
/// this. In the host's noisy stretches 2k and 8k req/s ran to 17 ms at p99
/// from idle wake-ups alone, and rates under the knee to 25 ms; past the
/// knee the server queues and refuses, and p99 runs to the 2 s response
/// timeout. At 50 ms the limit sits between the two, so the host's noise
/// does not set the knee.
constexpr double kP99LimitUs = 50000.0;
/// A measurement whose generator ran later than this at p99 is invalid: a
/// reference slice then does not count, and a measurement misses the
/// limits.
constexpr double kLateLimitUs = 2000.0;

struct Fixture {
  core::RrreConfig config;
  std::string prefix;
  std::string store_path;
  std::vector<std::pair<int64_t, int64_t>> pairs;  ///< Held-out requests.
  std::vector<double> targets;
  std::vector<int> labels;
  std::unique_ptr<core::RrreTrainer> trainer;
};

Fixture MakeFixture(const RunOptions& options) {
  Fixture f;
  f.config.epochs = kFixtureEpochs;
  f.config.seed = options.seed;
  f.config.shard_size = 8;
  f.prefix = options.workdir + "/ckpt";
  f.store_path = f.prefix + ".tower_store";
  rrre::common::Rng rng(options.seed ^ 0x5eedf00dULL);
  data::ReviewDataset full =
      data::GenerateSyntheticDataset(data::YelpChiProfile(kScale), rng);
  auto [train, test] = full.Split(0.7, rng);
  for (const data::Review& r : test.reviews()) {
    f.pairs.emplace_back(r.user, r.item);
    f.targets.push_back(r.rating);
    f.labels.push_back(r.is_benign() ? 1 : 0);
  }
  f.trainer = std::make_unique<core::RrreTrainer>(f.config);
  f.trainer->Fit(train);
  RRRE_CHECK_OK(f.trainer->Save(f.prefix));
  return f;
}

struct Scores {
  std::vector<double> rating;
  std::vector<double> reliability;
};

/// The offline reference: store-backed BatchScorer on a fresh load of the
/// same checkpoint.
Scores OfflineScores(const Fixture& f) {
  core::RrreTrainer ref(f.config);
  RRRE_CHECK_OK(ref.Load(f.prefix));
  auto store = core::MapTowerStoreForCheckpoint(f.store_path, f.prefix, ref);
  RRRE_CHECK_OK(store.status());
  core::BatchScorer scorer(&ref);
  scorer.AttachStore(store.value());
  const auto preds = scorer.Score(f.pairs);
  return Scores{preds.ratings, preds.reliabilities};
}

/// Sends every held-out pair once over one pipelined connection and parses
/// the answers; false on any missing or malformed response.
bool QualityPass(uint16_t port, const Fixture& f, Scores* served) {
  auto socket = rrre::common::Socket::Connect("127.0.0.1", port);
  if (!socket.ok()) return false;
  rrre::common::Socket conn = std::move(socket).ValueOrDie();
  (void)conn.SetRecvTimeout(10000);
  rrre::common::LineReader reader(&conn);
  constexpr size_t kChunk = 256;
  for (size_t lo = 0; lo < f.pairs.size(); lo += kChunk) {
    const size_t hi = std::min(f.pairs.size(), lo + kChunk);
    std::string out;
    for (size_t i = lo; i < hi; ++i) {
      out += StrFormat("%lld\t%lld\n", static_cast<long long>(f.pairs[i].first),
                       static_cast<long long>(f.pairs[i].second));
    }
    if (!conn.SendAll(out).ok()) return false;
    for (size_t i = lo; i < hi; ++i) {
      auto line = reader.ReadLine();
      if (!line.ok() || !line.value().has_value()) return false;
      const auto fields = rrre::common::Split(*line.value(), '\t');
      if (fields.size() != 4) return false;
      served->rating.push_back(std::strtod(fields[2].c_str(), nullptr));
      served->reliability.push_back(std::strtod(fields[3].c_str(), nullptr));
    }
  }
  return true;
}

struct Rung {  ///< One measurement at one rate.
  double rate = 0.0;
  Windowed latency;
  Windowed late;
  double answered_per_s = 0.0;
  double schedule_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t backlog = 0;
  bool meets = false;
};

Rung RunRate(uint16_t port, const Fixture& f, double rate, double seconds,
             uint64_t seed, int connections, OpenLoopResult* raw) {
  OpenLoopOptions o;
  o.port = port;
  o.connections = connections;
  o.rate = rate;
  o.seconds = seconds;
  o.seed = seed;
  o.pairs = f.pairs;
  o.keep_scores = raw != nullptr;
  OpenLoopResult r = RunOpenLoop(o);
  Rung rung;
  rung.rate = rate;
  // A failed or refused request misses any limit: it counts as a sample of
  // the response timeout.
  std::vector<double> latency = r.pair_latency_us;
  std::vector<double> due = r.pair_due_s;
  latency.resize(latency.size() + r.failed_due_s.size(), kResponseTimeoutUs);
  due.insert(due.end(), r.failed_due_s.begin(), r.failed_due_s.end());
  rung.latency = SummarizeWindows(latency, due, WindowSeconds(rate));
  rung.late = SummarizeWindows(r.late_us, r.late_due_s, WindowSeconds(rate));
  rung.attempted = r.attempted;
  rung.failed = r.failed;
  rung.backlog = r.backlog_at_end;
  rung.schedule_s = r.schedule_s;
  rung.answered_per_s = static_cast<double>(r.attempted - r.failed) /
                        std::max(1e-9, r.schedule_s);
  // No growing backlog: what is still outstanding when the schedule ends
  // must be answerable within the latency limit at this rate.
  const double backlog_limit = std::max(64.0, rate * kP99LimitUs * 1e-6);
  rung.meets = rung.latency.p99 <= kP99LimitUs &&
               static_cast<double>(rung.backlog) <= backlog_limit &&
               rung.late.p99 <= kLateLimitUs;
  std::fprintf(stderr,
               "[serve] rate %7.0f: n=%lld p50 %.1f p99 %.1f us (whole run "
               "p99 %.1f, p%.2f %.1f), late p99 %.1f us, backlog %lld, "
               "failed %lld%s\n",
               rate, static_cast<long long>(rung.latency.whole.n),
               rung.latency.p50, rung.latency.p99, rung.latency.whole.p99,
               rung.latency.whole.tail_pct, rung.latency.whole.tail,
               rung.late.p99, static_cast<long long>(rung.backlog),
               static_cast<long long>(rung.failed),
               rung.meets ? "" : "  (misses limit)");
  if (raw != nullptr) *raw = std::move(r);
  return rung;
}

/// Store-backed BatchScorer::Score cost per pair at a batch size, µs.
double StoreUsPerPair(const Fixture& f, int64_t batch) {
  core::RrreTrainer ref(f.config);
  RRRE_CHECK_OK(ref.Load(f.prefix));
  auto store = core::MapTowerStoreForCheckpoint(f.store_path, f.prefix, ref);
  RRRE_CHECK_OK(store.status());
  core::BatchScorer scorer(&ref);
  scorer.AttachStore(store.value());
  std::vector<std::pair<int64_t, int64_t>> pairs(
      f.pairs.begin(), f.pairs.begin() + std::min<int64_t>(
                                             batch, static_cast<int64_t>(
                                                        f.pairs.size())));
  const int reps = static_cast<int>(std::max<int64_t>(50, 20000 / batch));
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    scorer.Score(pairs);
    us.push_back(SecondsSince(start) * 1e6 / static_cast<double>(batch));
  }
  return Median(us);
}

}  // namespace

void RunServePairs(const RunOptions& options, Report& report) {
  const Fixture f = MakeFixture(options);
  // The generator and a reader per connection are threads of this process,
  // beside the server's. The fixed rates and the staircase use one
  // connection: with two on the 4-core host the limits were fixed on, the
  // knee moved with the host's noise by more than a quarter between runs of
  // one build; with one it held within about a tenth. The reference rate
  // uses two: over one, its p99 was half as high again and spread by 0.3
  // of its median between runs, over two by 0.06 to 0.2.
  constexpr int connections = 1;
  constexpr int kRefConnections = 2;
  const double slice_s = options.seconds * kReferenceShare / kSlices;

  serve::ServerOptions server_options;
  server_options.config = f.config;
  server_options.model_prefix = f.prefix;
  server_options.store_path = f.store_path;

  std::vector<double> setup_s, build_s, start_s;
  std::unique_ptr<serve::Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) server->Shutdown();
    server.reset();
    const Clock::time_point t0 = Clock::now();
    auto built = core::BuildTowerStore(*f.trainer, f.prefix, f.store_path);
    RRRE_CHECK_OK(built.status());
    const Clock::time_point t1 = Clock::now();
    auto started = serve::Server::Start(server_options);
    RRRE_CHECK_OK(started.status());
    server = std::move(started).ValueOrDie();
    const bool pong =
        ControlRoundTrip(server->port(), "PING", "#pong") >= 0.0;
    RRRE_CHECK(pong) << "server did not answer PING";
    setup_s.push_back(SecondsSince(t0));
    build_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    start_s.push_back(SecondsSince(t1));
  }
  const uint16_t port = server->port();

  // Output check: every held-out pair, served vs offline, bitwise.
  const Scores offline = OfflineScores(f);
  Scores served;
  const bool answered = QualityPass(port, f, &served);
  int64_t mismatches = 0;
  for (size_t i = 0; answered && i < f.pairs.size(); ++i) {
    if (served.rating[i] != offline.rating[i] ||
        served.reliability[i] != offline.reliability[i]) {
      ++mismatches;
    }
  }
  report.Check("bitwise_quality_pass", answered && mismatches == 0,
               StrFormat("%zu pairs, %lld differ from offline BatchScorer",
                         f.pairs.size(), static_cast<long long>(mismatches)));
  const double brmse =
      answered ? rrre::eval::BiasedRmse(served.rating, f.targets, f.labels)
               : 0.0;
  const double auc =
      answered ? rrre::eval::Auc(served.reliability, f.labels) : 0.0;

  // The reference rate, in slices spread through the run, with every
  // answer checked against the offline scores and the batcher's counters
  // summed over the slices. Each slice follows a group of RELOAD round
  // trips of the same checkpoint, the time to bring a generation live.
  RunRate(port, f, kRefRate, 0.5, options.seed + 1, kRefConnections, nullptr);
  std::vector<Rung> slices;
  // The highest rate the server has met the limits at in this run.
  double held = 0.0;
  int64_t ref_mismatch = 0, ref_checked = 0;
  double batches = 0, pairs = 0, submitted = 0, rejected = 0, compute_us = 0;
  auto reference_slice = [&] {
    const serve::ServerStats before = server->stats();
    OpenLoopResult raw;
    slices.push_back(RunRate(port, f, kRefRate, slice_s,
                             options.seed + 100 + slices.size(), kRefConnections,
                             &raw));
    const serve::ServerStats after = server->stats();
    if (slices.back().meets) held = std::max(held, kRefRate);
    for (const auto& s : raw.scores) {
      if (!s.answered) continue;
      ++ref_checked;
      const size_t i = static_cast<size_t>(s.pair);
      if (s.rating != offline.rating[i] ||
          s.reliability != offline.reliability[i]) {
        ++ref_mismatch;
      }
    }
    const auto delta = [](uint64_t a, uint64_t b) {
      return static_cast<double>(a - b);
    };
    batches += delta(after.batcher.batches, before.batcher.batches);
    pairs += delta(after.batcher.pairs_scored, before.batcher.pairs_scored);
    submitted += delta(after.batcher.submitted, before.batcher.submitted);
    rejected += delta(after.batcher.rejected, before.batcher.rejected);
    compute_us += after.batcher.batch_latency_us.sum() -
                  before.batcher.batch_latency_us.sum();
  };
  std::vector<double> reload_s;
  auto reload_group = [&] {
    for (int i = 0; i < kReloadsPerGroup; ++i) {
      reload_s.push_back(ControlRoundTrip(port, "RELOAD", "#reloaded"));
    }
  };
  auto reload_then_slice = [&] {
    reload_group();
    reference_slice();
  };
  reload_then_slice();

  // The fixed rates, then the staircase. Every measurement has its own
  // schedule seed.
  std::vector<Rung> ladder;
  auto measure = [&](double rate) {
    ladder.push_back(RunRate(
        port, f, rate, std::max(kTrialSeconds, 3 * WindowSeconds(rate)),
        options.seed + 10 + ladder.size(), connections, nullptr));
    reload_group();
    return ladder.back();
  };
  for (double rate : kFixedRates) {
    if (measure(rate).meets) held = std::max(held, rate);
  }
  double rate = kStairStart, step = kStairStep, log_rate_sum = 0.0;
  int64_t stair_answered = 0;
  double stair_seconds = 0.0;
  std::vector<double> knee_p50, knee_p99;
  bool last_meets = false;
  int invalid = 0;
  for (int trial = 0; trial < kStairTrials;) {
    const Rung rung = measure(rate);
    // A miss with a late generator at a rate the server already held is
    // the host's: a stall of the whole VM delays the generator and the
    // server alike. It is measured again, at most kStairRepeats times in a
    // run; past that the run is marked invalid.
    if (!rung.meets && rung.late.p99 > kLateLimitUs && rate <= held &&
        invalid < kStairRepeats) {
      ++invalid;
      continue;
    }
    if (rung.meets) held = std::max(held, rate);
    stair_answered += rung.attempted - rung.failed;
    stair_seconds += rung.schedule_s;
    if (trial >= kStairTrials - kStairAveraged) {
      log_rate_sum += std::log(rate);
      if (rung.meets) {
        knee_p50.push_back(rung.latency.p50);
        knee_p99.push_back(rung.latency.p99);
      }
    }
    if (trial > 0 && rung.meets != last_meets) {
      step = std::max(kStairMinStep, std::sqrt(step));
    }
    last_meets = rung.meets;
    rate = std::max(kRefRate, rung.meets ? rate * step : rate / step);
    ++trial;
    if (trial % kTrialsPerSlice == 0) reload_then_slice();
  }
  const double goodput = std::exp(log_rate_sum / kStairAveraged);
  report.Info("staircase_invalid", invalid);
  for (size_t i = 0; i < ladder.size(); ++i) {
    report.Info(StrFormat("ladder.%zu.rate", i), ladder[i].rate);
    report.Info(StrFormat("ladder.%zu.meets", i), ladder[i].meets);
  }
  // The RELOAD round trip runs in one of two modes, about 18 and 24 ms on
  // the host the limits were fixed on, switching with the host every few
  // seconds, so a median follows the mix of modes in the run. The host only
  // adds time: the fastest of the round trips spread through the run is the
  // reload's own cost, and the more groups, the likelier one falls in the
  // fast mode.
  const double reload_min =
      *std::min_element(reload_s.begin(), reload_s.end());
  report.Check("reload", reload_min >= 0.0,
               StrFormat("%zu RELOAD round trips", reload_s.size()));
  report.Info("reload.median_s", Median(reload_s));

  report.Check("bitwise_reference_rate",
               ref_mismatch == 0 && ref_checked > 0,
               StrFormat("%lld answers, %lld differ from offline",
                         static_cast<long long>(ref_checked),
                         static_cast<long long>(ref_mismatch)));
  // The reference latencies pool the windows of every slice whose generator
  // kept to the schedule: p50 and p99 are the median window's. Validity is
  // about the measurement, not the program's output, so it does not touch
  // `correct`: a run with no valid slice is marked invalid in the report,
  // and compare.py leaves it out.
  std::vector<double> window_p50, window_p99;
  double late_p99 = 0.0;
  int64_t ref_attempted = 0, ref_failed = 0, valid_slices = 0;
  for (const Rung& slice : slices) {
    ref_attempted += slice.attempted;
    ref_failed += slice.failed;
    late_p99 = std::max(late_p99, slice.late.p99);
    if (slice.late.p99 > kLateLimitUs) continue;
    ++valid_slices;
    window_p50.insert(window_p50.end(), slice.latency.window_p50.begin(),
                      slice.latency.window_p50.end());
    window_p99.insert(window_p99.end(), slice.latency.window_p99.begin(),
                      slice.latency.window_p99.end());
  }
  const bool valid = valid_slices > 0 && invalid < kStairRepeats;
  report.Info("generator_valid", valid);
  report.Info("reference_valid_slices", static_cast<double>(valid_slices));
  if (!valid) {
    std::fprintf(stderr,
                 "[serve] INVALID: generator late p99 over the %.0f us limit "
                 "in every reference slice or in %d staircase measurements\n",
                 kLateLimitUs, kStairRepeats);
  }
  if (valid_slices == 0) {
    for (const Rung& slice : slices) {
      window_p50.insert(window_p50.end(), slice.latency.window_p50.begin(),
                        slice.latency.window_p50.end());
      window_p99.insert(window_p99.end(), slice.latency.window_p99.begin(),
                        slice.latency.window_p99.end());
    }
  }
  const double ref_p50 = Median(window_p50);
  const double ref_p99 = Median(window_p99);
  report.Info("reference_windows", static_cast<double>(window_p50.size()));

  // The run's operations are the reference slices' requests. Measurements
  // past the knee refuse requests by design; their refusals count as misses
  // of that measurement (and so in goodput), and are listed in info.
  report.Count(ref_attempted, ref_failed);
  int64_t ladder_attempted = 0, ladder_failed = 0;
  for (const Rung& rung : ladder) {
    ladder_attempted += rung.attempted;
    ladder_failed += rung.failed;
  }
  report.Info("ladder_attempted", static_cast<double>(ladder_attempted));
  report.Info("ladder_failed", static_cast<double>(ladder_failed));
  report.Info("reference_rate", kRefRate);
  report.Info("p99_limit_us", kP99LimitUs);
  report.Info("late_limit_us", kLateLimitUs);
  report.Info("connections", connections);
  report.Info("reference_connections", kRefConnections);
  for (size_t i = 0; i < slices.size(); ++i) {
    const Summary& whole = slices[i].latency.whole;
    const std::string base = StrFormat("reference.slice%zu.", i);
    report.Info(base + "samples", static_cast<double>(whole.n));
    report.Info(base + "windows",
                static_cast<double>(slices[i].latency.windows));
    report.Info(base + "p50_us", slices[i].latency.p50);
    report.Info(base + "p99_us", slices[i].latency.p99);
    report.Info(base + "whole_p99_us", whole.p99);
    report.Info(base + "tail_pct", whole.tail_pct);
    report.Info(base + "tail_us", whole.tail);
  }

  if (!options.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("examples_per_s",
                  static_cast<double>(stair_answered) / stair_seconds, "1/s");
    report.Metric("quality_brmse", brmse, "stars");
    report.Metric("quality_auc", auc, "ratio");
    report.Metric("p50_us", ref_p50, "us");
    report.Metric("p99_us", ref_p99, "us");
    report.Metric("goodput_qps", goodput, "1/s");
    report.Metric("generation_s", reload_min, "s");
  } else {
    const double ping_us = PingRttUs(port, 200);
    report.Layer("common.socket.ping_rtt_us", ping_us, "us");
    report.Layer("serve.batcher.batch_pairs_mean",
                 batches > 0 ? pairs / batches : 0.0, "pairs");
    report.Layer("serve.batcher.batches_per_request",
                 submitted > 0 ? batches / submitted : 0.0, "ratio");
    // Server::stats() keeps batch compute time in a bucketed histogram; its
    // sum, count and max are exact, so the slices' exact mean and the
    // server's slowest batch are reported, not bucket-quantized percentiles.
    const double compute_mean = batches > 0 ? compute_us / batches : 0.0;
    report.Layer("serve.batcher.batch_compute_us_mean", compute_mean, "us");
    report.Layer("serve.batcher.batch_compute_us_max",
                 server->stats().batcher.batch_latency_us.Max(), "us");
    report.Layer("serve.wait_us_p50", ref_p50 - compute_mean - ping_us, "us",
                 /*derived=*/true);
    report.Layer("serve.server.rejected_ratio",
                 submitted + rejected > 0 ? rejected / (submitted + rejected)
                                          : 0.0,
                 "ratio");
    for (int64_t b : {1, 8, 64}) {
      report.Layer(StrFormat("core.scorer.store_us_per_pair.b%lld",
                             static_cast<long long>(b)),
                   StoreUsPerPair(f, b), "us");
    }
    report.Layer("core.tower_store.build_s", Median(build_s), "s");
    report.Layer("serve.server.start_s", Median(start_s), "s");
    // Rows for the fixed rates, and for the staircase's last trials that
    // met the limits (the median of each).
    for (size_t i = 0; i < std::size(kFixedRates); ++i) {
      const std::string base = StrFormat("serve.ladder.r%.0f.", kFixedRates[i]);
      report.Layer(base + "p50_us", ladder[i].latency.p50, "us");
      report.Layer(base + "p99_us", ladder[i].latency.p99, "us");
    }
    report.Layer("serve.ladder.knee.p50_us", Median(knee_p50), "us");
    report.Layer("serve.ladder.knee.p99_us", Median(knee_p99), "us");
    report.Layer("loadgen.late_us_p99", late_p99, "us");
    // Tracing overhead: one more slice with RRRE_PROF spans on.
    rrre::obs::SetProfilingEnabled(true);
    const Rung traced = RunRate(port, f, kRefRate, slice_s, options.seed + 2,
                                kRefConnections, nullptr);
    rrre::obs::SetProfilingEnabled(false);
    report.Layer("trace.overhead_pct",
                 (traced.latency.p50 / ref_p50 - 1.0) * 100.0, "%");
  }
  server->Shutdown();
}

}  // namespace perfbench
