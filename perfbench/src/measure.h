#ifndef RRRE_PERFBENCH_MEASURE_H_
#define RRRE_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trainer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Exact order statistics of raw samples (no bucketing). Percentiles use the
/// nearest-rank rule: the value at index ceil(p/100 * n) - 1 of the sorted
/// samples. `tail_pct` is the highest of 90, 99, 99.9 and 99.99 that still
/// has at least ten samples beyond it (0 when even p90 has fewer); `tail` is
/// the value at that percentile.
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};
Summary Summarize(std::vector<double> samples);
/// Exact summaries of consecutive `window_s`-long windows of a run (by each
/// sample's due time), reduced to the median across windows of each
/// window's p50 and p99. One host stall lands in one window, so the median
/// window shows the system and not the stall; `whole` keeps the run's own
/// exact summary beside it. Windows with fewer than kMinWindowSamples
/// samples are left out; with none left, p50/p99 fall back to `whole`.
constexpr size_t kMinWindowSamples = 1000;
struct Windowed {
  Summary whole;
  double p50 = 0.0;  ///< Median over windows of the window p50.
  double p99 = 0.0;  ///< Median over windows of the window p99.
  int64_t windows = 0;
  std::vector<double> window_p50;  ///< Each counted window's p50, in order.
  std::vector<double> window_p99;  ///< Each counted window's p99, in order.
};
Windowed SummarizeWindows(const std::vector<double>& samples,
                          const std::vector<double>& due_s, double window_s);
double Median(std::vector<double> samples);

/// Byte-level FNV-1a over every trainable parameter of the fitted model, in
/// registration order: equal fingerprints mean bitwise-equal parameters.
uint64_t ParamsFingerprint(const rrre::core::RrreTrainer& trainer);

/// Everything one workload run measured and checked. Metrics are kept in
/// insertion order per kind; the binary prints the whole report as one JSON
/// line, which run.py reduces to the result line it prints.
class Report {
 public:
  /// An end-to-end metric (measured with tracing off).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (traced run only). `derived` marks values computed
  /// from other measurements rather than timed directly.
  void Layer(const std::string& name, double value, const std::string& unit,
             bool derived = false);
  /// Free-form context (sizes, rates, limits); not a metric.
  void Info(const std::string& key, double value);
  /// An output check; any failed check makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Operations attempted / failed (requests, epochs, generations).
  void Count(int64_t attempted, int64_t failed);

  /// Appends `other`'s layers, info, checks and counts, with `prefix`
  /// before every name (its end-to-end metrics are not carried over).
  void Merge(const Report& other, const std::string& prefix);

  bool correct() const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool derived;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> layers_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<CheckResult> checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Command-line options every workload receives.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;          ///< Global pool size the workload runs at.
  std::string workdir;      ///< Scratch directory inside the checkout.
};

void RunTrain(const RunOptions& options, Report& report);
void RunServePairs(const RunOptions& options, Report& report);
void RunStream(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // RRRE_PERFBENCH_MEASURE_H_
