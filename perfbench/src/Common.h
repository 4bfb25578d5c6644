//===- Common.h - shared run context of the perfbench workloads -----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the parsed options, the outcome a workload
/// fills (operation samples, set-up times, failures, per-layer metrics),
/// and the span recorder of the traced run. Spans are recorded only by
/// the benchmark, around its calls into the library's public functions.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_COMMON_H
#define LTP_PERFBENCH_COMMON_H

#include "Stats.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  /// Scratch directory of this run (sockets, kernel stores) and the
  /// working directory, so socket paths stay short; removed by the caller
  /// afterwards.
  std::string WorkDir;
  /// The ltp-serve binary built next to this one.
  std::string DaemonPath;
  /// Kernel store shared by the runs of one build directory, so warm
  /// workloads find their kernels compiled.
  std::string StoreDir;
};

/// Seconds on the steady clock since the first call in this process.
double now();

/// What a workload reports back to main().
struct Outcome {
  /// Duration of each set-up the workload ran (seconds).
  std::vector<double> SetupSeconds;
  /// Wall time of each timed operation (milliseconds) and its class (the
  /// kernel, or the kernel and platform): op_ms is the geometric mean over
  /// classes of the class median.
  std::vector<double> OpMillis;
  std::vector<int> OpClass;
  /// Operations completed in the timed phase and its wall time, for
  /// ops_per_s (kernel_run counts the baseline runs it interleaves too).
  uint64_t Completed = 0;
  double OpSeconds = 0;
  /// Operations attempted (timed operations plus correctness checks) and
  /// those that failed.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailureNotes;
  /// Per-layer metrics of a traced run, by name.
  std::map<std::string, double> Layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> Notes;

  /// Counts one checked operation; records \p What when it failed.
  void check(bool Ok, const std::string &What);

  /// Records one timed operation of class \p Class.
  void op(double Millis, int Class) {
    OpMillis.push_back(Millis);
    OpClass.push_back(Class);
    ++Completed;
  }
};

/// In-memory span recorder. Parents follow the per-thread stack of open
/// spans; request ids group the spans of one replayed request.
class Tracer {
public:
  /// A no-op recorder when \p Enabled is false.
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t RequestId = 0, int Tag = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int64_t Index = -1;
    double Start = 0;
  };

  /// Snapshot of every finished span.
  std::vector<Span> spans() const;

  /// Writes the spans as one JSON object per line to \p Path.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  mutable std::mutex Mu;
  std::vector<Span> Recorded;
};

/// Median duration in \p Scale units of the spans named \p Name (with tag
/// \p Tag when it is not -1); 0 when none was recorded.
double medianSpan(const std::vector<Span> &Spans, const char *Name,
                  double Scale, int Tag = -1);

/// Ratio of a traced wall of \p TracedWallSeconds to the same wall without
/// the cost of recording \p NumSpans spans, that cost measured on a scratch
/// recorder.
double traceOverhead(size_t NumSpans, double TracedWallSeconds);

/// Current value of the library counter \p Name.
int64_t counterValue(const char *Name);

/// The twelve Table-4 kernels, in the paper's order.
const std::vector<std::string> &kernelNames();

/// Named platforms plus the client default.
const std::vector<std::string> &platformNames();

Outcome runColdRequests(const Options &O, Tracer &T);
Outcome runServeMix(const Options &O, Tracer &T);
Outcome runKernelRun(const Options &O, Tracer &T);
Outcome runSimulate(const Options &O, Tracer &T);

} // namespace perfbench

#endif // LTP_PERFBENCH_COMMON_H
