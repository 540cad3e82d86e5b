// rrre_perfbench: runs one benchmark workload and prints its report as the
// last line of standard output (one JSON object). Progress and check results
// go to standard error. Normally launched through perfbench/run.py, which
// builds this binary, stamps the result and reduces it to the metrics the
// run asked for.
//
//   rrre_perfbench --workload train|serve_pairs|stream --seed N
//                  --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 runs the named workload and reports its end-to-end metrics;
// `stream` has none and is refused. --trace 1 is the per-layer run: it runs
// the traced phase of every workload (the named one first), so each traced
// run reports the whole per-layer table, each name prefixed with the
// workload it was measured on.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/threadpool.h"
#include "measure.h"
#include "obs/trace.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload train|serve_pairs|stream --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               argv0);
  return 2;
}

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> names = {"train", "serve_pairs",
                                                 "stream"};
  return names;
}

/// Runs one workload at its thread count.
void RunWorkload(const std::string& workload, RunOptions options,
                 Report& report) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  void (*run)(const RunOptions&, Report&) = perfbench::RunServePairs;
  options.threads = nproc;
  if (workload == "train") {
    // Half the cores: four threads on a shared 4-core host ran too noisy to
    // hold a tenth, two held it (see README.md).
    options.threads = std::max(1, nproc / 2);
    run = perfbench::RunTrain;
  } else if (workload == "stream") {
    // Retraining shares the host with the fleet it publishes to; half the
    // cores train, the rest serve.
    options.threads = std::max(1, nproc / 2);
    run = perfbench::RunStream;
  }
  options.workdir += "/" + workload;
  if (!rrre::common::EnsureDir(options.workdir).ok()) {
    std::fprintf(stderr, "cannot create workdir %s\n",
                 options.workdir.c_str());
    std::exit(2);
  }
  rrre::common::ThreadPool::SetGlobalSize(options.threads);
  run(options, report);
  report.Info("threads", options.threads);
  report.Info("nproc", nproc);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.workdir.empty() || options.seconds <= 0.0 ||
      std::find(Workloads().begin(), Workloads().end(), workload) ==
          Workloads().end() ||
      (!options.trace && workload == "stream")) {
    return Usage(argv[0]);
  }
  // The RRRE_PROF spans are the library's own tracing; they stay off unless
  // a traced phase turns them on, whatever the environment says.
  rrre::obs::SetProfilingEnabled(false);

  Report report;
  if (!options.trace) {
    RunWorkload(workload, options, report);
  } else {
    std::vector<std::string> order = {workload};
    for (const std::string& w : Workloads()) {
      if (w != workload) order.push_back(w);
    }
    for (const std::string& w : order) {
      Report part;
      RunWorkload(w, options, part);
      report.Merge(part, w + ".");
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
