#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark binary: command-line options, the
// report every workload fills, the clock, and the in-memory span log the
// traced run keeps.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// City runner threads; 0 picks nproc - 1 (the driver takes the last
  /// core). Lowering it is how to check that latency reacts to capacity.
  size_t runners = 0;
  /// Where the traced run writes its spans (Chrome trace JSON); empty
  /// skips the file.
  std::string trace_out;
};

/// What one run prints as its final JSON line. Metric names and units
/// are declared once, in main.cc's tables; a workload sets the values it
/// measures and main.cc reports the others as absent.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// One-line findings printed to stderr (why a metric is absent, which
  /// check failed).
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One span recorded around a call into a library layer. `id` groups the
/// spans of one instance or request; `parent` is the id of the enclosing
/// span (0 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t thread = 0;
};

/// Writes spans as Chrome trace JSON (viewable in Perfetto), the earliest
/// `max_spans` of them, so a long run keeps its file small.
void WriteChromeTrace(const std::string& path, std::vector<Span> spans,
                      size_t max_spans);

/// Peak resident set of this process in MB.
double PeakRssMb();

Report RunPaperBatch(const Options& opt);
Report RunCityHotspot(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
