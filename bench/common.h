#ifndef FTA_BENCH_COMMON_H_
#define FTA_BENCH_COMMON_H_

/// Shared configuration of the paper-reproduction benches.
///
/// The paper's SYN scale (100K tasks / 5K delivery points / 2K workers /
/// 50 centers on a 2x20-core Xeon) is shrunk by kSynScale with population
/// ratios and spatial densities preserved (see ScaleSyn); all reported
/// comparisons are relative between algorithms at matched inputs, so the
/// figure *shapes* survive the scaling. Every bench prints the factor.

#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fta/fta.h"

namespace fta {
namespace bench {

/// Process-lifetime worker pools, one per thread count. Replay benches
/// repeat their workloads many times; constructing a fresh ThreadPool per
/// repetition both pays thread spawn inside the timed region and hides
/// pool-reuse regressions. Inject these through VdpsConfig::pool (or pass
/// to AssignmentServer) so repetitions
/// share one pool — bench_serve asserts via ThreadPool::total_created()
/// that its measurement loop spawns none. Benches are single-threaded at
/// the call site, so the static map needs no lock.
inline ThreadPool& SharedBenchPool(size_t threads) {
  static std::map<size_t, std::unique_ptr<ThreadPool>> pools;
  std::unique_ptr<ThreadPool>& slot = pools[threads];
  if (!slot) slot = std::make_unique<ThreadPool>(threads);
  return *slot;
}

/// Provenance stamped into every BENCH_*.json so tools/bench_track can
/// fold gate runs into a comparable trajectory (BENCH_history.jsonl).
struct BenchMeta {
  std::string git_sha;   // short SHA, "unknown" outside a checkout
  std::string cpu;       // /proc/cpuinfo model name
  std::string date;      // UTC YYYY-MM-DD
  std::string compiler;  // __VERSION__
  std::string build;     // "release" (NDEBUG) or "debug"
  unsigned threads = 0;  // hardware_concurrency
};

/// True for a plausible abbreviated git SHA: ≥4 lowercase hex chars.
/// `git rev-parse` outside a checkout (or with git absent) can still
/// produce output — a shell error line, an empty string — and a bench
/// run must degrade to "unknown" rather than record garbage that
/// bench_track would then treat as a real commit.
inline bool LooksLikeGitSha(const std::string& sha) {
  if (sha.size() < 4) return false;
  for (const char c : sha) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

inline BenchMeta GetBenchMeta() {
  BenchMeta meta;
  meta.git_sha = "unknown";
  if (FILE* p = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (fgets(buf, sizeof(buf), p) != nullptr) {
      std::string sha(buf);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
      if (LooksLikeGitSha(sha)) meta.git_sha = sha;
    }
    pclose(p);
  }
  meta.cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      meta.cpu = line.substr(start);
      break;
    }
  }
  const std::time_t now = std::time(nullptr);
  char datebuf[16] = {0};
  std::tm tm_utc;
  if (gmtime_r(&now, &tm_utc) != nullptr &&
      std::strftime(datebuf, sizeof(datebuf), "%Y-%m-%d", &tm_utc) > 0) {
    meta.date = datebuf;
  } else {
    meta.date = "unknown";
  }
  meta.compiler = __VERSION__;
#ifdef NDEBUG
  meta.build = "release";
#else
  meta.build = "debug";
#endif
  meta.threads = std::thread::hardware_concurrency();
  return meta;
}

/// Appends the meta object into an in-progress JSON document (after
/// Key("meta")).
inline void AppendBenchMeta(obs::JsonWriter& w) {
  const BenchMeta meta = GetBenchMeta();
  w.BeginObject();
  w.Key("git_sha");
  w.String(meta.git_sha);
  w.Key("cpu");
  w.String(meta.cpu);
  w.Key("date");
  w.String(meta.date);
  w.Key("compiler");
  w.String(meta.compiler);
  w.Key("build");
  w.String(meta.build);
  w.Key("threads");
  w.UInt(meta.threads);
  w.EndObject();
}

/// The meta object as a standalone JSON string, for ostringstream-built
/// bench files.
inline std::string BenchMetaJson() {
  obs::JsonWriter w;
  AppendBenchMeta(w);
  return w.str();
}

/// Population scale factor applied to the paper's SYN numbers.
inline constexpr double kSynScale = 0.05;

/// Paper Table I defaults for the gMission dataset (|S|=200, |W|=40,
/// |DP|=100, ε=0.6 km), synthesized per DESIGN.md §4.
inline GMissionConfig GmDefault(uint64_t seed = 101) {
  GMissionConfig config;
  config.num_tasks = 200;
  config.num_workers = 40;
  config.seed = seed;
  return config;
}

inline GMissionPrepConfig GmPrepDefault(size_t num_dps = 100,
                                        uint32_t max_dp = 3) {
  GMissionPrepConfig prep;
  prep.num_delivery_points = num_dps;
  prep.max_dp = max_dp;
  prep.seed = 102;
  return prep;
}

/// One-center wrapper so GM instances fit the multi-center sweep API.
inline MultiCenterInstance GmMulti(const GMissionConfig& config,
                                   const GMissionPrepConfig& prep) {
  MultiCenterInstance multi;
  multi.centers.push_back(GenerateGMissionLike(config, prep));
  return multi;
}

/// Paper Table I defaults for SYN, scaled by kSynScale.
inline SynConfig SynDefault(uint64_t seed = 103) {
  SynConfig config;  // paper defaults baked into SynConfig
  config.seed = seed;
  return ScaleSyn(config, kSynScale);
}

/// Default solver options per dataset (underlined Table I values).
inline SolverOptions GmOptions() {
  SolverOptions options;
  options.vdps.epsilon = 0.6;
  options.vdps.max_set_size = 3;
  return options;
}

inline SolverOptions SynOptions() {
  SolverOptions options;
  options.vdps.epsilon = 2.0;
  options.vdps.max_set_size = 3;
  return options;
}

/// The four paper algorithms as sweep series under common options.
inline std::vector<SweepSeries> PaperSeries(const SolverOptions& options) {
  std::vector<SweepSeries> series;
  for (Algorithm a : PaperAlgorithms()) {
    series.push_back({AlgorithmName(a), a, options});
  }
  return series;
}

inline void PrintHeader(const std::string& what) {
  std::printf("############################################################\n");
  std::printf("# %s\n", what.c_str());
  std::printf("# SYN populations scaled by %.3g vs. the paper (see DESIGN.md)\n",
              kSynScale);
  std::printf("############################################################\n\n");
}

}  // namespace bench
}  // namespace fta

#endif  // FTA_BENCH_COMMON_H_
