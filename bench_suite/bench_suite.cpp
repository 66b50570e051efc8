// bench_suite: one benchmark from the engine to the socket.
//
//   bench_suite --workload W [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-file PATH]
//
// Workloads: engine_churn, session_hot_world, daemon_flush_rtt,
// daemon_ingest_open (see README.md for why each exists). Each op stream
// is generated from --seed before timing starts. An untraced run prints
// the end-to-end metrics; a traced run (--trace 1) prints the per-layer
// metrics and a decomposition, and --trace-file writes its spans as CSV.
// The last line of stdout is the result as one JSON object. Exit status:
// 0 when the outputs matched the from-scratch oracle, 1 when they did not,
// 2 on a usage or internal error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "suite/daemon_flush_rtt.h"
#include "suite/daemon_ingest_open.h"
#include "suite/engine_churn.h"
#include "suite/report.h"
#include "suite/session_hot_world.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-file PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench_suite::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (a == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-file") {
      opts.trace_file = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.seconds <= 0) return Usage(argv[0]);

  bench_suite::RunResult result;
  try {
    if (opts.workload == "engine_churn") {
      result = bench_suite::RunEngineChurn(opts);
    } else if (opts.workload == "session_hot_world") {
      result = bench_suite::RunSessionHotWorld(opts);
    } else if (opts.workload == "daemon_flush_rtt") {
      result = bench_suite::RunDaemonFlushRtt(opts);
    } else if (opts.workload == "daemon_ingest_open") {
      result = bench_suite::RunDaemonIngestOpen(opts);
    } else {
      return Usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 2;
  }
  if (!bench_suite::PrintResult(opts, result)) return 2;
  return result.correct() ? 0 : 1;
}
