// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload paper_batch|city_hotspot --seed N
//             --seconds S --trace 0|1 [--runners R] [--trace-out FILE]
//
// Runs one workload for S measured seconds on inputs generated from N,
// checks every output, and prints one JSON object as its last stdout line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. README.md in this directory explains the workloads and the
// metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common.h"
#include "util/logging.h"

namespace perfbench {

void WriteChromeTrace(const std::string& path, std::vector<Span> spans,
                      size_t max_spans) {
  std::ofstream out(path);
  if (!out) return;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[\n";
  const size_t n = std::min(spans.size(), max_spans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}%s\n",
                  s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < n ? "," : "");
    out << line;
  }
  out << "]}\n";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares, in its order: end-to-end ones with
// --trace 0, per-layer ones with --trace 1. README.md defines each.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"instances_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"ontime_share", "share"},
    {"mean_payoff_difference", "payoff"},
    {"mean_average_payoff", "payoff"},
};

constexpr MetricSpec kPerLayer[] = {
    {"vdps.generate_ms", "ms"},
    {"vdps.strategies_ms", "ms"},
    {"vdps.enumerate_ms", "ms"},
    {"vdps.adjacency_ms", "ms"},
    {"vdps.finalize_ms", "ms"},
    {"vdps.entries", "count"},
    {"vdps.strategies", "count"},
    {"vdps.states_expanded", "count"},
    {"vdps.delta_ms", "ms"},
    {"vdps.delta_share", "share"},
    {"game.solve_ms", "ms"},
    {"game.rounds", "count"},
    {"game.strategies_scanned", "count"},
    {"game.cache_hit_share", "share"},
    {"stream.tick_p50_ms", "ms"},
    {"stream.tick_p99_ms", "ms"},
    {"stream.project_ms", "ms"},
    {"stream.other_ms", "ms"},
    {"stream.events_in", "count"},
    {"serve.submit_p50_us", "us"},
    {"serve.submit_p99_us", "us"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.retries", "count"},
    {"serve.rejected", "count"},
    {"serve.coalesced_per_batch", "count"},
    {"serve.shard_imbalance", "ratio"},
    {"serve.critical_path_bound", "ratio"},
    {"serve.runner_busy_share", "share"},
    {"share.admission", "share"},
    {"share.queue_wait", "share"},
    {"share.vdps", "share"},
    {"share.game", "share"},
    {"share.stream_other", "share"},
    {"driver.send_lag_p99_ms", "ms"},
    {"trace.overhead_share", "share"},
    {"trace.unaccounted_share", "share"},
    {"trace.reconciled_share", "share"},
};

template <size_t N>
void PrintJson(Report& r, const MetricSpec (&specs)[N]) {
  std::string absent, metrics;
  for (size_t i = 0; i < N; ++i) {
    const auto it = r.values.find(specs[i].name);
    double v = 0.0;
    if (it == r.values.end()) {
      absent += std::string(absent.empty() ? "" : " ") + specs[i].name;
    } else {
      v = it->second;
      r.values.erase(it);
    }
    char value[64];
    // Non-finite readings have no JSON form; they mark a broken run.
    if (!std::isfinite(v)) {
      r.Fail(std::string(specs[i].name) + " is not finite");
    }
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    metrics += std::string(i ? ", \"" : "\"") + specs[i].name +
         "\": {\"value\": " + value + ", \"unit\": \"" + specs[i].unit +
         "\"}";
  }
  // A value the tables do not declare is a bug in the benchmark itself.
  for (const auto& [name, v] : r.values) {
    r.Fail("undeclared metric " + name);
  }
  if (!absent.empty()) r.notes.push_back("absent (reported as 0): " + absent);
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_batch|city_hotspot "
               "--seed N --seconds S --trace 0|1 "
               "[--runners R] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--runners") {
      opt.runners = std::strtoull(val, nullptr, 10);
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0.0)) return perfbench::Usage();

  // The library logs one INFO line per catalog generation; keep stderr
  // writes out of the timed regions.
  fta::SetLogLevel(fta::LogLevel::kWarning);

  perfbench::Report report;
  if (opt.workload == "paper_batch") {
    report = perfbench::RunPaperBatch(opt);
  } else if (opt.workload == "city_hotspot") {
    report = perfbench::RunCityHotspot(opt);
  } else {
    return perfbench::Usage();
  }
  if (opt.trace) {
    perfbench::PrintJson(report, perfbench::kPerLayer);
  } else {
    perfbench::PrintJson(report, perfbench::kEndToEnd);
  }
  return 0;
}
