// Workload `train`: RrreTrainer::Fit on the yelpchi profile, on the
// data-parallel sharded path, with the global pool at half the cores.
//
// Untraced run: the same Fit is repeated (fresh corpus generation each time)
// until the run's time is spent, at least kMinRepeats times. Every repeat
// must end on bitwise-identical parameters. Epoch 0 of every Fit is warm-up;
// the timed epochs feed the throughput and step-time metrics.
//
// Traced run: one untraced and one traced Fit (RRRE_PROF spans on, and the
// benchmark's own stopwatches around each call into data/text/core), a
// one-thread Fit for the pool's scaling efficiency, a shadow training step
// driven through FeatureBuilder, RrreModel and Adam, and the nn modules and
// GEMM shapes of the model timed on their own.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/features.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "measure.h"
#include "nn/attention.h"
#include "nn/fm.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/tape.h"

namespace perfbench {
namespace {

using rrre::common::Rng;
using rrre::tensor::Tensor;
namespace core = rrre::core;
namespace data = rrre::data;
namespace nn = rrre::nn;
namespace tensor = rrre::tensor;

constexpr double kScale = 0.6;       ///< yelpchi profile multiplier.
constexpr int64_t kEpochs = 3;       ///< Per Fit; epoch 0 is warm-up.
constexpr int64_t kShardSize = 8;    ///< The benches' data-parallel shard.
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 8;

struct Corpus {
  data::ReviewDataset train;
  data::ReviewDataset test;
  double generate_s = 0.0;
};

Corpus Generate(uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Rng rng(seed ^ 0x5eedf00dULL);
  data::ReviewDataset full =
      data::GenerateSyntheticDataset(data::YelpChiProfile(kScale), rng);
  auto [train, test] = full.Split(0.7, rng);
  return Corpus{std::move(train), std::move(test), SecondsSince(start)};
}

/// Library defaults except the epoch budget, the seed and the shard size.
core::RrreConfig TrainConfig(uint64_t seed, int64_t epochs) {
  core::RrreConfig config;
  config.epochs = epochs;
  config.seed = seed;
  config.shard_size = kShardSize;
  return config;
}

struct FitRun {
  double wall_s = 0.0;
  double setup_s = 0.0;              ///< Fit wall minus the epochs.
  std::vector<double> epoch_s;       ///< Every epoch, warm-up included.
  std::vector<double> epoch_loss;
  uint64_t fingerprint = 0;
  /// Span sums (µs) and counts at the end of the warm-up epoch, so traced
  /// per-epoch figures cover the timed epochs only.
  std::vector<double> span_sum_at_warmup;
  std::vector<int64_t> span_count_at_warmup;

  std::vector<double> TimedEpochs() const {
    return std::vector<double>(epoch_s.begin() + 1, epoch_s.end());
  }
};

/// The RRRE_PROF spans the library already records.
const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "span_matmul_us", "span_matmul_self_us", "span_attention_forward_us",
      "span_train_shard_us"};
  return names;
}

rrre::common::Histogram SpanSnapshot(const std::string& name) {
  return rrre::obs::MetricsRegistry::Global().GetHistogram(name)->Snapshot();
}

FitRun TimedFit(const Corpus& corpus, core::RrreTrainer* trainer) {
  FitRun run;
  const Clock::time_point start = Clock::now();
  trainer->Fit(corpus.train, [&](const core::RrreTrainer::EpochStats& s) {
    run.epoch_s.push_back(s.seconds);
    run.epoch_loss.push_back(s.loss);
    if (run.epoch_s.size() == 1 && rrre::obs::ProfilingEnabled()) {
      for (const std::string& name : SpanNames()) {
        const auto h = SpanSnapshot(name);
        run.span_sum_at_warmup.push_back(h.sum());
        run.span_count_at_warmup.push_back(h.count());
      }
    }
  });
  run.wall_s = SecondsSince(start);
  double epochs_total = 0.0;
  for (double s : run.epoch_s) epochs_total += s;
  run.setup_s = run.wall_s - epochs_total;
  run.fingerprint = ParamsFingerprint(*trainer);
  return run;
}

int64_t NonFiniteEpochs(const FitRun& run) {
  int64_t bad = 0;
  for (double loss : run.epoch_loss) {
    if (!std::isfinite(loss)) ++bad;
  }
  return bad;
}

/// Median over `reps` calls of `fn`, in milliseconds.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(SecondsSince(start) * 1e3);
  }
  return Median(ms);
}

/// Shadow training step: the trainer's whole-batch step composition, driven
/// through the public FeatureBuilder / RrreModel / Adam API on the trained
/// trainer's vocabulary and corpus, with a stopwatch around each call.
void ShadowStep(const core::RrreTrainer& trainer, uint64_t seed,
                Report& report) {
  const core::RrreConfig& config = trainer.config();
  const data::ReviewDataset& train = trainer.train_data();
  Rng rng(seed ^ 0x5ad0ULL);
  core::RrreModel model(config, train.num_users(), train.num_items(),
                        trainer.vocab().size(), rng);
  core::FeatureBuilder features(config, &train, &trainer.vocab());
  nn::Adam adam(model.Parameters(), config.lr);
  tensor::BatchTape tape;

  constexpr int kWarmup = 5;
  constexpr int kSteps = 40;
  const int64_t bsz = config.batch_size;
  std::vector<double> build_ms, forward_ms, backward_ms, optimizer_ms,
      step_ms, rest_ms, user_ms, item_ms;
  for (int step = 0; step < kWarmup + kSteps; ++step) {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    std::vector<int64_t> exclude;
    std::vector<float> targets, weights;
    std::vector<int64_t> labels;
    for (int64_t i = 0; i < bsz; ++i) {
      const data::Review& r = train.review(
          static_cast<int64_t>(rng.UniformInt(train.size())));
      pairs.emplace_back(r.user, r.item);
      exclude.push_back(-1);
      targets.push_back(static_cast<float>(r.rating - trainer.rating_offset()));
      labels.push_back(r.is_benign() ? 1 : 0);
      weights.push_back(r.is_benign() ? 1.0f : 0.0f);
    }
    const Clock::time_point t0 = Clock::now();
    core::RrreModel::Batch batch = features.Build(pairs, exclude, rng);
    const Clock::time_point t1 = Clock::now();
    double fwd = 0.0, bwd = 0.0, opt = 0.0;
    {
      tape.BeginStep(static_cast<uint64_t>(bsz));
      tensor::BatchTape::Scope scope(&tape);
      const Clock::time_point f0 = Clock::now();
      core::RrreModel::Output out = model.Forward(batch, true, &rng);
      fwd = SecondsSince(f0) * 1e3;
      Tensor loss1 =
          tensor::CrossEntropyWithLogits(out.reliability_logits, labels);
      Tensor loss2 = tensor::Add(
          nn::WeightedMseLoss(out.rating, targets, weights,
                              nn::WeightedMseNorm::kBatchSize),
          tensor::MulScalar(nn::L2Penalty(adam.params()),
                            static_cast<float>(config.gamma)));
      Tensor loss = tensor::Add(
          tensor::MulScalar(loss1, static_cast<float>(config.lambda)),
          tensor::MulScalar(loss2, static_cast<float>(1.0 - config.lambda)));
      const Clock::time_point b0 = Clock::now();
      loss.Backward();
      bwd = SecondsSince(b0) * 1e3;
      const Clock::time_point o0 = Clock::now();
      auto params = adam.params();
      nn::ClipGradNorm(params, config.grad_clip);
      adam.Step();
      opt = SecondsSince(o0) * 1e3;
    }
    const double total = SecondsSince(t0) * 1e3;
    // The towers on their own, outside the step (inference graphs).
    const Clock::time_point u0 = Clock::now();
    Tensor xu = model.ComputeUserProfiles(batch);
    const Clock::time_point i0 = Clock::now();
    Tensor yi = model.ComputeItemProfiles(batch);
    const double user = std::chrono::duration<double, std::milli>(i0 - u0)
                            .count();
    const double item = SecondsSince(i0) * 1e3;
    if (step < kWarmup) continue;
    const double build =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    build_ms.push_back(build);
    forward_ms.push_back(fwd);
    backward_ms.push_back(bwd);
    optimizer_ms.push_back(opt);
    step_ms.push_back(total);
    rest_ms.push_back(total - build - fwd - bwd - opt);
    user_ms.push_back(user);
    item_ms.push_back(item);
  }
  report.Layer("core.shadow_step_ms", Median(step_ms), "ms");
  report.Layer("core.features.build_ms", Median(build_ms), "ms");
  report.Layer("core.model.forward_ms", Median(forward_ms), "ms");
  report.Layer("core.model.user_tower_ms", Median(user_ms), "ms");
  report.Layer("core.model.item_tower_ms", Median(item_ms), "ms");
  report.Layer("tensor.backward_ms", Median(backward_ms), "ms");
  report.Layer("nn.optimizer_ms", Median(optimizer_ms), "ms");
  report.Layer("core.shadow_step_unattributed_ms", Median(rest_ms), "ms",
               /*derived=*/true);
}

/// The nn modules at the model's own per-shard shapes (item tower: shard
/// size x s_i review slots), eager, timed alone.
void ModuleTimes(const core::RrreConfig& config, uint64_t seed,
                 Report& report) {
  Rng rng(seed ^ 0x30d5ULL);
  const int64_t slots = kShardSize * config.s_i;
  const int64_t hidden = config.rev_dim / 2;
  constexpr int kReps = 60;

  nn::BiLstmEncoder bilstm(config.word_dim, hidden, rng);
  std::vector<Tensor> steps;
  for (int64_t t = 0; t < config.max_tokens; ++t) {
    steps.push_back(Tensor::Randn({slots, config.word_dim}, rng));
  }
  std::vector<double> fwd_ms, bwd_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    const Clock::time_point f0 = Clock::now();
    Tensor out = bilstm.Encode(steps);
    const Clock::time_point b0 = Clock::now();
    tensor::Sum(out).Backward();
    bwd_ms.push_back(SecondsSince(b0) * 1e3);
    fwd_ms.push_back(
        std::chrono::duration<double, std::milli>(b0 - f0).count());
  }
  report.Layer("nn.bilstm_fwd_ms", Median(fwd_ms), "ms");
  report.Layer("nn.bilstm_bwd_ms", Median(bwd_ms), "ms");

  nn::FraudAttention attention(config.rev_dim, config.id_dim, config.id_dim,
                               config.attention_dim, rng);
  const Tensor rev = Tensor::Randn({slots, config.rev_dim}, rng);
  const Tensor uid = Tensor::Randn({slots, config.id_dim}, rng);
  const Tensor iid = Tensor::Randn({slots, config.id_dim}, rng);
  report.Layer("nn.attention_fwd_ms", MedianMs(kReps, [&] {
                 attention.Forward(rev, uid, iid, config.s_i);
               }),
               "ms");

  nn::FactorizationMachine fm(2 * config.id_dim, config.fm_factors, rng);
  const Tensor x = Tensor::Randn({kShardSize, 2 * config.id_dim}, rng);
  report.Layer("nn.fm_fwd_ms", MedianMs(kReps, [&] { fm.Forward(x); }),
               "ms");

  // GEMMs at model shapes: {M, K, N}. lstm_gates is the input projection
  // of a whole review sequence, lstm_recur one recurrent step.
  struct Shape {
    const char* name;
    int64_t m, k, n;
  };
  const Shape shapes[] = {
      {"lstm_gates", config.max_tokens * slots, config.word_dim, 4 * hidden},
      {"lstm_recur", slots, hidden, 4 * hidden},
      {"attention", slots, config.rev_dim, config.attention_dim},
      {"fm_mix", kShardSize, 2 * config.id_dim, config.fm_factors},
  };
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::Randn({s.m, s.k}, rng);
    const Tensor b = Tensor::Randn({s.k, s.n}, rng);
    // Enough calls per sample that one sample lasts well above timer noise.
    const int64_t calls = std::max<int64_t>(1, 2000000 / (s.m * s.k * s.n));
    const double ms = MedianMs(25, [&] {
      for (int64_t c = 0; c < calls; ++c) tensor::MatMul(a, b);
    });
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const double bytes = 4.0 * static_cast<double>(s.m * s.k + s.k * s.n +
                                                   s.m * s.n);
    const std::string base = "tensor.gemm_";
    report.Layer(base + "gflops." + s.name,
                 flops * static_cast<double>(calls) / (ms * 1e-3) / 1e9,
                 "GFLOP/s");
    report.Info(base + "flop_per_call." + s.name, flops);
    report.Info(base + "bytes_per_call." + s.name, bytes);
  }
}

}  // namespace

void RunTrain(const RunOptions& options, Report& report) {
  const core::RrreConfig config = TrainConfig(options.seed, kEpochs);
  report.Info("scale", kScale);
  report.Info("epochs_per_fit", kEpochs);
  report.Info("shard_size", kShardSize);

  if (!options.trace) {
    const Clock::time_point start = Clock::now();
    std::vector<FitRun> runs;
    std::vector<double> setup_s, timed_epochs;
    double quality_brmse = 0.0, quality_auc = 0.0;
    int64_t train_size = 0;
    while (static_cast<int>(runs.size()) < kMinRepeats ||
           (SecondsSince(start) < options.seconds &&
            static_cast<int>(runs.size()) < kMaxRepeats)) {
      const Corpus corpus = Generate(options.seed);
      core::RrreTrainer trainer(config);
      FitRun run = TimedFit(corpus, &trainer);
      if (runs.empty()) {
        const auto eval = trainer.Evaluate(corpus.test);
        quality_brmse = eval.brmse;
        quality_auc = eval.auc;
        train_size = corpus.train.size();
      }
      setup_s.push_back(corpus.generate_s + run.setup_s);
      for (double s : run.TimedEpochs()) timed_epochs.push_back(s);
      std::fprintf(stderr, "[train] fit %zu: setup %.3f s, epochs", runs.size(),
                   setup_s.back());
      for (double s : run.epoch_s) std::fprintf(stderr, " %.3f", s);
      std::fprintf(stderr, "\n");
      runs.push_back(std::move(run));
    }
    bool same = true;
    int64_t bad_epochs = 0, epochs = 0;
    for (const FitRun& run : runs) {
      same = same && run.fingerprint == runs[0].fingerprint;
      bad_epochs += NonFiniteEpochs(run);
      epochs += static_cast<int64_t>(run.epoch_s.size());
    }
    report.Check("fingerprint_repeats", same,
                 rrre::common::StrFormat(
                     "%zu fits, fingerprint %016llx", runs.size(),
                     static_cast<unsigned long long>(runs[0].fingerprint)));
    report.Check("finite_loss", bad_epochs == 0,
                 std::to_string(bad_epochs) + " epochs with non-finite loss");
    report.Check("quality_sane", quality_auc > 0.5 && quality_brmse > 0,
                 rrre::common::StrFormat("auc %.4f brmse %.4f", quality_auc,
                                         quality_brmse));
    report.Count(epochs, bad_epochs);

    const int64_t steps = (train_size + config.batch_size - 1) /
                          config.batch_size;
    const double median_epoch = Median(timed_epochs);
    std::vector<double> fit_wall;
    double wall_total = 0.0;
    for (const FitRun& run : runs) {
      fit_wall.push_back(run.wall_s);
      wall_total += run.wall_s;
    }
    const double examples_timed = static_cast<double>(train_size) *
                                  static_cast<double>(kEpochs - 1) *
                                  static_cast<double>(runs.size());
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("examples_per_s",
                  static_cast<double>(train_size) / median_epoch, "1/s");
    report.Metric("quality_brmse", quality_brmse, "stars");
    report.Metric("quality_auc", quality_auc, "ratio");
    report.Metric("p50_us", median_epoch / static_cast<double>(steps) * 1e6,
                  "us");
    // The sample supports no percentile above p50, so the tail is the
    // slowest timed epoch of each Fit, reported as the median over Fits:
    // one slow epoch in one Fit moves it less than the overall maximum.
    std::vector<double> slowest;
    for (const FitRun& run : runs) {
      const std::vector<double> timed = run.TimedEpochs();
      slowest.push_back(*std::max_element(timed.begin(), timed.end()));
    }
    report.Metric("p99_us", Median(slowest) / static_cast<double>(steps) * 1e6,
                  "us");
    report.Metric("goodput_qps", examples_timed / wall_total, "1/s");
    report.Metric("generation_s", Median(fit_wall), "s");
    report.Info("train_examples", static_cast<double>(train_size));
    report.Info("timed_epochs", static_cast<double>(timed_epochs.size()));
    report.Info("steps_per_epoch", static_cast<double>(steps));
    return;
  }

  // ---- Traced run. ---------------------------------------------------------
  const Corpus corpus = Generate(options.seed);
  report.Layer("data.generate_s", corpus.generate_s, "s");

  core::RrreTrainer untraced(config);
  const FitRun base = TimedFit(corpus, &untraced);
  const double base_epoch = Median(base.TimedEpochs());

  rrre::obs::SetProfilingEnabled(true);
  std::vector<rrre::common::Histogram> before;
  for (const std::string& name : SpanNames()) {
    before.push_back(SpanSnapshot(name));
  }
  core::RrreTrainer traced(config);
  const FitRun run = TimedFit(corpus, &traced);
  rrre::obs::SetProfilingEnabled(false);
  const double traced_epoch = Median(run.TimedEpochs());
  report.Check("fingerprint_traced", run.fingerprint == base.fingerprint,
               rrre::common::StrFormat(
                   "traced %016llx untraced %016llx",
                   static_cast<unsigned long long>(run.fingerprint),
                   static_cast<unsigned long long>(base.fingerprint)));
  report.Count(static_cast<int64_t>(base.epoch_s.size() + run.epoch_s.size()),
               NonFiniteEpochs(base) + NonFiniteEpochs(run));
  report.Layer("core.fit_setup_s", run.setup_s, "s");
  report.Layer("core.epoch_s", traced_epoch, "s");

  // Span sums over the timed epochs, per timed epoch.
  const double timed = static_cast<double>(run.epoch_s.size() - 1);
  std::vector<double> per_epoch_ms;
  for (size_t i = 0; i < SpanNames().size(); ++i) {
    const auto h = SpanSnapshot(SpanNames()[i]);
    per_epoch_ms.push_back((h.sum() - run.span_sum_at_warmup[i]) / 1e3 /
                           timed);
  }
  // matmul has no child spans, so its self time is its total; if a later
  // change nests spans under it, the recorded self histogram takes over.
  const bool matmul_has_children =
      SpanSnapshot("span_matmul_self_us").count() > before[1].count();
  report.Layer("tensor.span.matmul_self_ms",
               matmul_has_children ? per_epoch_ms[1] : per_epoch_ms[0], "ms");
  report.Layer("nn.span.attention_forward_ms", per_epoch_ms[2], "ms");
  // The span histograms are bucketed; their sums, counts and max are exact,
  // so the shard time is reported as an exact mean over the timed epochs
  // and the slowest shard of the traced Fit.
  const auto shards = SpanSnapshot("span_train_shard_us");
  const double shard_count = static_cast<double>(
      shards.count() - run.span_count_at_warmup[3]);
  report.Layer("core.train_shard_ms_mean",
               shard_count > 0 ? per_epoch_ms[3] * timed / shard_count : 0.0,
               "ms");
  report.Layer("core.train_shard_ms_max", shards.Max() / 1e3, "ms");

  const tensor::BatchTape::Stats tape = traced.TapeStats();
  report.Layer("tensor.tape.replay_ratio",
               tape.steps > 0 ? static_cast<double>(tape.replay_steps) /
                                    static_cast<double>(tape.steps)
                              : 0.0,
               "ratio");
  report.Layer("tensor.tape.fallbacks",
               static_cast<double>(tape.replay_fallbacks), "count");
  report.Layer("tensor.tape.buffer_allocs",
               static_cast<double>(tape.buffer_allocs), "count");
  report.Layer("tensor.tape.closure_allocs",
               static_cast<double>(tape.closure_allocs), "count");

  // Scaling efficiency: the same Fit's timed epochs on a one-thread pool.
  rrre::common::ThreadPool::SetGlobalSize(1);
  core::RrreTrainer serial(TrainConfig(options.seed, 2));
  const FitRun one = TimedFit(corpus, &serial);
  rrre::common::ThreadPool::SetGlobalSize(options.threads);
  report.Layer("common.threadpool.scaling_eff",
               Median(one.TimedEpochs()) /
                   (static_cast<double>(options.threads) * base_epoch),
               "ratio");

  ShadowStep(traced, options.seed, report);
  ModuleTimes(config, options.seed, report);
  report.Layer("trace.overhead_pct", (traced_epoch / base_epoch - 1.0) * 100.0,
               "%");
}

}  // namespace perfbench
