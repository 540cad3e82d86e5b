#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {
namespace {

/// Nearest-rank percentile of already sorted samples; `pct` in (0, 100].
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(sorted.size()));
  return sorted[static_cast<size_t>(rank - 1)];
}

}  // namespace

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Percentile(samples, 50.0);
  s.p99 = Percentile(samples, 99.0);
  for (double pct : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(s.n) * (100.0 - pct) / 100.0 < 10.0) break;
    s.tail_pct = pct;
    s.tail = Percentile(samples, pct);
  }
  return s;
}

Windowed SummarizeWindows(const std::vector<double>& samples,
                          const std::vector<double>& due_s, double window_s) {
  Windowed w;
  w.whole = Summarize(samples);
  std::map<int64_t, std::vector<double>> buckets;
  for (size_t i = 0; i < samples.size(); ++i) {
    buckets[static_cast<int64_t>(due_s[i] / window_s)].push_back(samples[i]);
  }
  for (auto& [index, values] : buckets) {
    // Only windows whose p99 has at least ten samples beyond it count.
    if (values.size() < kMinWindowSamples) continue;
    const Summary s = Summarize(std::move(values));
    w.window_p50.push_back(s.p50);
    w.window_p99.push_back(s.p99);
  }
  w.windows = static_cast<int64_t>(w.window_p50.size());
  w.p50 = w.window_p50.empty() ? w.whole.p50 : Median(w.window_p50);
  w.p99 = w.window_p99.empty() ? w.whole.p99 : Median(w.window_p99);
  return w;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

uint64_t ParamsFingerprint(const rrre::core::RrreTrainer& trainer) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& param : trainer.model().Parameters()) {
    const float* data = param.data();
    const size_t bytes = static_cast<size_t>(param.numel()) * sizeof(float);
    const auto* p = reinterpret_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, false});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, bool derived) {
  layers_.push_back({name, value, unit, derived});
}

void Report::Info(const std::string& key, double value) {
  info_.emplace_back(key, value);
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  std::fprintf(stderr, "[check] %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Merge(const Report& other, const std::string& prefix) {
  for (Entry e : other.layers_) {
    e.name = prefix + e.name;
    layers_.push_back(std::move(e));
  }
  for (const auto& [key, value] : other.info_) {
    info_.emplace_back(prefix + key, value);
  }
  for (CheckResult c : other.checks_) {
    c.name = prefix + c.name;
    checks_.push_back(std::move(c));
  }
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  auto entries = [](const std::vector<Entry>& list) {
    std::string out = "{";
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(list[i].name) + ": {\"value\": " +
             JsonNumber(list[i].value) + ", \"unit\": " +
             JsonString(list[i].unit);
      if (list[i].derived) out += ", \"derived\": true";
      out += "}";
    }
    return out + "}";
  };
  std::string info = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) info += ", ";
    info += JsonString(info_[i].first) + ": " + JsonNumber(info_[i].second);
  }
  info += "}";
  std::string checks = "[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) checks += ", ";
    checks += "{\"name\": " + JsonString(checks_[i].name) +
              ", \"ok\": " + (checks_[i].ok ? "true" : "false") +
              ", \"detail\": " + JsonString(checks_[i].detail) + "}";
  }
  checks += "]";
  return "{\"correct\": " + std::string(correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + entries(metrics_) +
         ", \"layers\": " + entries(layers_) + ", \"info\": " + info +
         ", \"checks\": " + checks + "}";
}

}  // namespace perfbench
