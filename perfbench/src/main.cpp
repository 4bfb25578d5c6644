//===- main.cpp - the repository benchmark: one workload per invocation ---===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   ltp-perfbench --workload <cold_requests|serve_mix|kernel_run|simulate>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 --work-dir <dir> --store-dir <dir>
///
/// Runs one workload for about --seconds, checks every output, and prints
/// one JSON object as its last stdout line: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
/// check failed (the JSON still reports `failed`), 2 on a usage error.
/// perfbench/run.py builds this binary and supplies the directories.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "benchmarks/Benchmarks.h"
#include "obs/Log.h"
#include "obs/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <csignal>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

double perfbench::now() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

void Outcome::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FailureNotes.size() < 20)
    FailureNotes.push_back(What);
}

namespace {

/// Indices of the spans open on this thread, innermost last.
std::vector<int64_t> &openStack() {
  thread_local std::vector<int64_t> Stack;
  return Stack;
}

} // namespace

Tracer::Scope::Scope(Tracer &T, const char *Name, uint64_t RequestId, int Tag)
    : T(T) {
  if (!T.Enabled)
    return;
  Span S;
  S.Name = Name;
  S.RequestId = RequestId;
  S.Tag = Tag;
  S.Parent = openStack().empty() ? -1 : openStack().back();
  {
    std::lock_guard<std::mutex> Lock(T.Mu);
    Index = static_cast<int64_t>(T.Recorded.size());
    T.Recorded.push_back(S);
  }
  openStack().push_back(Index);
  Start = now();
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  double End = now();
  openStack().pop_back();
  std::lock_guard<std::mutex> Lock(T.Mu);
  Span &S = T.Recorded[static_cast<size_t>(Index)];
  S.Start = Start;
  S.End = End;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Recorded;
}

bool Tracer::write(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::vector<double> Self = selfTimes(All);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %lld, \"request\": %llu, "
                 "\"kernel\": \"%s\", \"self_s\": %.9f}\n",
                 I, S.Name, S.Start, S.End, static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.RequestId),
                 S.Tag >= 0 ? kernelNames()[static_cast<size_t>(S.Tag)].c_str()
                            : "",
                 Self[I]);
  }
  return std::fclose(F) == 0;
}

double perfbench::medianSpan(const std::vector<Span> &Spans, const char *Name,
                             double Scale, int Tag) {
  std::vector<double> D;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0 && (Tag < 0 || S.Tag == Tag))
      D.push_back((S.End - S.Start) * Scale);
  return D.empty() ? 0.0 : median(D);
}

double perfbench::traceOverhead(size_t NumSpans, double TracedWallSeconds) {
  Tracer Probe(true);
  const int Reps = 20000;
  double Start = now();
  for (int I = 0; I != Reps; ++I)
    Tracer::Scope S(Probe, "probe");
  double Cost = (now() - Start) / Reps * static_cast<double>(NumSpans);
  return TracedWallSeconds > Cost
             ? TracedWallSeconds / (TracedWallSeconds - Cost)
             : 0.0;
}

int64_t perfbench::counterValue(const char *Name) {
  return ltp::obs::counter(Name).value();
}

const std::vector<std::string> &perfbench::kernelNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const ltp::BenchmarkDef &D : ltp::allBenchmarks())
      N.push_back(D.Name);
    return N;
  }();
  return Names;
}

const std::vector<std::string> &perfbench::platformNames() {
  static const std::vector<std::string> Names = {"6700", "5930k", "a15",
                                                 "host"};
  return Names;
}

namespace {

struct Metric {
  std::string Name;
  std::string Unit;
};

/// Every per-layer metric a traced run prints, in BENCHMARK.json order. A
/// workload that never calls a layer reports its metrics as 0.
std::vector<Metric> perLayerMetrics() {
  std::vector<Metric> M = {
      {"serve.parse_us", "us"},       {"serve.key_us", "us"},
      {"serve.render_us", "us"},      {"serve.hit_us", "us"},
      {"serve.dedup_hit_share", "ratio"},
      {"serve.unattributed_share", "ratio"},
      {"arch.resolve_named_us", "us"}, {"arch.resolve_host_us", "us"},
      {"benchmarks.buffer_mb", "MB"}};
  auto PerKernel = [&](const std::string &Prefix, const std::string &Unit) {
    for (const std::string &K : kernelNames())
      M.push_back({Prefix + "." + K, Unit});
  };
  PerKernel("benchmarks.create_ms", "ms");
  PerKernel("core.plan_ms", "ms");
  M.insert(M.end(), {{"model.candidates", "count"},
                     {"model.analytic_share", "ratio"},
                     {"model.fallbacks", "count"},
                     {"lang.lower_ms", "ms"},
                     {"lang.schedule_apply_us", "us"},
                     {"analysis.lint_ms", "ms"},
                     {"codegen.generate_ms", "ms"},
                     {"codegen.c_bytes", "bytes"},
                     {"jit.cc_ms", "ms"},
                     {"jit.load_ms", "ms"},
                     {"jit.cc_invocations", "count"}});
  PerKernel("runtime.kernel_ms", "ms");
  PerKernel("runtime.baseline_ms", "ms");
  M.push_back({"runtime.speedup_vs_baseline", "ratio"});
  PerKernel("benchmarks.verify_ms", "ms");
  PerKernel("cachesim.maccess_per_s", "Maccess/s");
  M.insert(M.end(), {{"cachesim.maccess_per_s", "Maccess/s"},
                     {"cachesim.fastpath_share", "ratio"},
                     {"interp.fallbacks", "count"},
                     {"obs.trace_overhead", "ratio"},
                     {"obs.attributed_share", "ratio"}});
  return M;
}

[[noreturn]] void usage(const std::string &Error) {
  std::fprintf(stderr,
               "error: %s\nusage: ltp-perfbench --workload "
               "<cold_requests|serve_mix|kernel_run|simulate> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "--store-dir <dir>\n",
               Error.c_str());
  std::exit(2);
}

/// Strict flag parsing: every flag is required, known and given once, as
/// `--name value` or `--name=value`.
Options parseOptions(int Argc, char **Argv) {
  std::map<std::string, std::string> Given;
  static const char *Known[] = {"workload", "seed",     "seconds",
                                "trace",    "work-dir", "store-dir"};
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0)
      usage("unexpected argument '" + Arg + "'");
    std::string Name = Arg.substr(2), Value;
    size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      usage("flag --" + Name + " needs a value");
    }
    if (std::find(std::begin(Known), std::end(Known), Name) == std::end(Known))
      usage("unknown flag --" + Name);
    if (!Given.emplace(Name, Value).second)
      usage("flag --" + Name + " given twice");
  }
  for (const char *K : Known)
    if (!Given.count(K))
      usage(std::string("missing --") + K);

  Options O;
  O.Workload = Given["workload"];
  char *End = nullptr;
  errno = 0;
  O.Seed = std::strtoull(Given["seed"].c_str(), &End, 10);
  if (Given["seed"].empty() || *End || errno)
    usage("--seed wants a non-negative integer");
  O.Seconds = std::strtod(Given["seconds"].c_str(), &End);
  if (Given["seconds"].empty() || *End || !(O.Seconds > 0) ||
      O.Seconds > 600)
    usage("--seconds wants a number in (0, 600]");
  if (Given["trace"] != "0" && Given["trace"] != "1")
    usage("--trace wants 0 or 1");
  O.Trace = Given["trace"] == "1";
  O.WorkDir = Given["work-dir"];
  O.StoreDir = Given["store-dir"];
  return O;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // kB on Linux
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  now(); // fixes the clock's epoch

  // Daemon defaults: metrics on, logs off. The library's own span
  // recorder stays off; spans come from the benchmark's Tracer.
  ltp::obs::setLogLevel(ltp::obs::LogLevel::Off);
  unsetenv("LTP_TRACE");
  setenv("TMPDIR", O.WorkDir.c_str(), 1);
  std::signal(SIGPIPE, SIG_IGN); // as ltp-serve: a closed peer is an error
  if (::chdir(O.WorkDir.c_str()) != 0)
    usage("cannot enter --work-dir " + O.WorkDir);
  char Self[4096];
  ssize_t Len = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  if (Len <= 0)
    usage("cannot locate the ltp-perfbench binary");
  std::string SelfPath(Self, static_cast<size_t>(Len));
  O.DaemonPath = SelfPath.substr(0, SelfPath.rfind('/')) + "/ltp-serve";

  std::map<std::string, Outcome (*)(const Options &, Tracer &)> Workloads = {
      {"cold_requests", runColdRequests},
      {"serve_mix", runServeMix},
      {"kernel_run", runKernelRun},
      {"simulate", runSimulate}};
  auto It = Workloads.find(O.Workload);
  if (It == Workloads.end())
    usage("unknown workload '" + O.Workload + "'");

  // The model layer's own counters, read around the whole workload.
  auto Count = [](const char *Name) {
    return static_cast<double>(counterValue(Name));
  };
  auto ModelFallbacks = [&] {
    return Count("model.predict.fallback") + Count("model.bound.fallback");
  };
  double Cand0 = Count("opt.candidates"), Analytic0 = Count("opt.candidates.analytic");
  double Fallbacks0 = ModelFallbacks(), Cc0 = Count("jit.cc_invocations");

  Tracer T(O.Trace);
  Outcome R = It->second(O, T);

  double Cand = Count("opt.candidates") - Cand0;
  R.Layer["model.candidates"] = Cand;
  R.Layer["model.analytic_share"] =
      Cand > 0 ? (Count("opt.candidates.analytic") - Analytic0) / Cand : 0.0;
  R.Layer["model.fallbacks"] = ModelFallbacks() - Fallbacks0;
  // cold_requests reports only the daemon's cc runs, not its replay's.
  R.Layer.emplace("jit.cc_invocations", Count("jit.cc_invocations") - Cc0);

  // End-to-end latency: the geometric mean over operation classes of each
  // class's median, so operations of very different cost weigh alike and
  // the figure does not depend on how many operations each class got.
  std::map<int, std::vector<double>> ByClass;
  for (size_t I = 0; I != R.OpMillis.size(); ++I)
    ByClass[R.OpClass[I]].push_back(R.OpMillis[I]);
  std::vector<double> ClassMedians;
  for (const auto &[K, Ms] : ByClass)
    ClassMedians.push_back(median(Ms));
  double OpMs = geomean(ClassMedians);
  size_t N = R.OpMillis.size();
  double OpsPerSecond = static_cast<double>(R.Completed) / R.OpSeconds;
  if (!O.Trace)
    R.check(N > 0 && std::isfinite(OpMs) && OpsPerSecond > 0 &&
                !R.SetupSeconds.empty(),
            "no operation or set-up was measured");
  else
    R.check(T.write(O.WorkDir + "/spans.jsonl"), "cannot write the spans");

  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());
  for (const std::string &Note : R.FailureNotes)
    std::printf("FAILED: %s\n", Note.c_str());
  double Tail = tailPercentile(N);
  std::printf("%s: %zu timed operations in %zu classes, %zu set-ups; "
              "fail_share %.6f (%llu of %llu checks failed); all operations: "
              "p50 %.4f ms, p%g %.4f ms (highest percentile with 10 samples "
              "beyond it)\n",
              O.Workload.c_str(), N, ByClass.size(), R.SetupSeconds.size(),
              static_cast<double>(R.Failed) /
                  static_cast<double>(std::max<uint64_t>(R.Attempted, 1)),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted), median(R.OpMillis),
              Tail, Tail > 0 ? quantile(R.OpMillis, Tail / 100.0) : 0.0);

  std::string Metrics;
  auto Add = [&](const std::string &Name, double Value,
                 const std::string &Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(Value) ? Value : 0);
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + Name +
               "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit + "\"}";
  };
  if (O.Trace) {
    for (const Metric &M : perLayerMetrics()) {
      auto V = R.Layer.find(M.Name);
      Add(M.Name, V == R.Layer.end() ? 0.0 : V->second, M.Unit);
    }
  } else {
    Add("setup_s", median(R.SetupSeconds), "s");
    Add("peak_rss_mb", peakRssMb(), "MB");
    Add("op_ms", OpMs, "ms");
    Add("ops_per_s", OpsPerSecond, "1/s");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  std::fflush(stdout);
  // Skip static destructors: the library's global thread pool and
  // registries need no orderly teardown at exit.
  std::_Exit(R.Failed == 0 ? 0 : 1);
}
