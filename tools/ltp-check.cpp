//===- ltp-check.cpp - validators and the bench regression gate -----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// One checker binary for what CI validates with the project's own parsers:
//
//   trace       a Chrome-trace file written by --trace-json (traceEvents
//               array, "X" spans, "C" counters, "M" metadata), optionally
//               requiring spans by name. Exit 0 valid, 1 otherwise.
//   metrics     a Prometheus exposition from the `metrics` serve op (TYPE
//               declarations, sample grammar, cumulative histogram buckets
//               ending in a +Inf equal to _count), optionally requiring
//               families. Exit 0 valid, 1 otherwise.
//   bench-diff  a bench's --json report against a committed baseline: rows
//               match by (bench, config) and fail when the metric (default
//               best_s, lower is better; dotted paths reach nested objects
//               such as serve_load's `latency.p99`) regresses by more than
//               --threshold (default 0.2). Prefer ratio metrics such as
//               table5's `speedup` with --higher-better across machines. A
//               report marked "skipped" passes. Exit 0 ok, 1 regression,
//               2 usage or input error.
//
// Every subcommand rejects flags it does not declare (exit 2), so a
// misspelled flag in a CI step fails the step instead of silently
// turning the check off.
//
//===----------------------------------------------------------------------===//

#include "obs/JsonCheck.h"
#include "obs/MetricsCheck.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace ltp;
using obs::JsonValue;

namespace {

/// Positional arguments plus every value given for each declared flag
/// (a boolean flag records one empty value per occurrence).
struct ParsedArgs {
  std::vector<std::string> Positional;
  std::map<std::string, std::vector<std::string>> Flags;

  std::string last(const std::string &Name, const std::string &Def) const {
    auto It = Flags.find(Name);
    return It == Flags.end() ? Def : It->second.back();
  }
};

/// Reads \p Path whole; false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Text = Buffer.str();
  return In.good();
}

/// Fails (exit 1) unless every name in the comma-separated \p Flag values
/// is in \p Have.
int requireAll(const ParsedArgs &Args, const std::string &Flag,
               const std::set<std::string> &Have, const char *What) {
  auto It = Args.Flags.find(Flag);
  if (It == Args.Flags.end())
    return 0;
  for (const std::string &List : It->second) {
    std::istringstream In(List);
    std::string Wanted;
    while (std::getline(In, Wanted, ','))
      if (!Wanted.empty() && !Have.contains(Wanted)) {
        std::fprintf(stderr, "ltp-check: %s: no %s named '%s'\n",
                     Args.Positional[0].c_str(), What, Wanted.c_str());
        return 1;
      }
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// trace and metrics
//===----------------------------------------------------------------------===//

int checkTrace(const ParsedArgs &Args) {
  const std::string &Path = Args.Positional[0];
  std::string Summary, Error;
  std::set<std::string> Spans;
  if (!obs::checkTraceFile(Path, &Summary, &Error, &Spans)) {
    std::fprintf(stderr, "ltp-check trace: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return 1;
  }
  // e.g. --require-span opt.optimize proves the optimizer was traced.
  if (requireAll(Args, "require-span", Spans, "span"))
    return 1;
  std::printf("%s: OK (%s)\n", Path.c_str(), Summary.c_str());
  return 0;
}

int checkMetrics(const ParsedArgs &Args) {
  const std::string &Path = Args.Positional[0];
  std::string Text, Summary, Error = "cannot open file";
  if (!readFile(Path, Text) ||
      !obs::checkMetricsText(Text, &Summary, &Error)) {
    std::fprintf(stderr, "ltp-check metrics: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return 1;
  }
  // e.g. --require-metric ltp_serve_request_ms proves the latency
  // histogram made it onto the scrape surface.
  std::vector<std::string> Names = obs::metricFamilyNames(Text);
  if (requireAll(Args, "require-metric",
                 std::set<std::string>(Names.begin(), Names.end()),
                 "metric family"))
    return 1;
  std::printf("%s: OK (%s)\n", Path.c_str(), Summary.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// bench-diff
//===----------------------------------------------------------------------===//

/// Loads one report; exits 2 with a diagnostic on unreadable/malformed
/// input. Returns null only for reports marked "skipped".
std::unique_ptr<JsonValue> loadReport(const std::string &Path) {
  std::string Text, Error = "cannot read file";
  std::unique_ptr<JsonValue> Root;
  if (!readFile(Path, Text) || !(Root = obs::parseJson(Text, &Error)) ||
      !Root->isObject()) {
    std::fprintf(stderr, "ltp-check bench-diff: %s: %s\n", Path.c_str(),
                 Root ? "not a JSON object" : Error.c_str());
    std::exit(2);
  }
  if (const JsonValue *Skip = Root->find("skipped")) {
    std::printf("%s: skipped (%s) — nothing to compare\n", Path.c_str(),
                Skip->isString() ? Skip->StringValue.c_str() : "?");
    return nullptr;
  }
  return Root;
}

/// Resolves \p Metric against \p Row, descending through nested objects
/// at each '.' ("latency.p99" -> Row["latency"]["p99"]). A plain name
/// with no dots is a direct member lookup, so field names containing
/// dots keep working when no nested object shadows them.
const JsonValue *findMetric(const JsonValue &Row, const std::string &Metric) {
  if (const JsonValue *Direct = Row.find(Metric))
    return Direct;
  const JsonValue *Node = &Row;
  size_t Start = 0;
  while (Node) {
    size_t Dot = Metric.find('.', Start);
    if (Dot == std::string::npos)
      return Node->find(Metric.substr(Start));
    Node = Node->find(Metric.substr(Start, Dot - Start));
    Start = Dot + 1;
  }
  return nullptr;
}

/// (bench, config) -> metric value for every row carrying the metric as
/// a non-negative number (timing fields are negative when unavailable).
std::map<std::string, double> indexRows(const JsonValue &Root,
                                        const std::string &Metric) {
  std::map<std::string, double> Out;
  const JsonValue *Results = Root.find("results");
  if (!Results || !Results->isArray())
    return Out;
  for (const JsonValue &Row : Results->Elements) {
    const JsonValue *Bench = Row.find("bench");
    const JsonValue *Config = Row.find("config");
    const JsonValue *Value = findMetric(Row, Metric);
    if (!Bench || !Bench->isString() || !Config || !Config->isString() ||
        !Value || !Value->isNumber() || Value->NumberValue < 0.0)
      continue;
    Out[Bench->StringValue + "/" + Config->StringValue] =
        Value->NumberValue;
  }
  return Out;
}

int benchDiff(const ParsedArgs &Args) {
  const std::string Metric = Args.last("metric", "best_s");
  const double Threshold = std::atof(Args.last("threshold", "0.2").c_str());
  const bool HigherBetter = Args.Flags.contains("higher-better");
  if (Threshold <= 0.0) {
    std::fprintf(stderr, "ltp-check bench-diff: --threshold must be > 0\n");
    return 2;
  }

  std::unique_ptr<JsonValue> Baseline = loadReport(Args.Positional[0]);
  std::unique_ptr<JsonValue> Current = loadReport(Args.Positional[1]);
  if (!Baseline || !Current)
    return 0; // environment skip on either side: nothing to gate

  std::map<std::string, double> Base = indexRows(*Baseline, Metric);
  std::map<std::string, double> Cur = indexRows(*Current, Metric);
  if (Base.empty()) {
    std::fprintf(stderr,
                 "ltp-check bench-diff: baseline %s has no rows with "
                 "metric '%s' — wrong --metric or stale baseline?\n",
                 Args.Positional[0].c_str(), Metric.c_str());
    return 2;
  }

  int Regressions = 0;
  int Compared = 0;
  for (const auto &[Key, BaseValue] : Base) {
    auto It = Cur.find(Key);
    if (It == Cur.end()) {
      std::printf("  missing  %-28s (in baseline only)\n", Key.c_str());
      continue;
    }
    ++Compared;
    double CurValue = It->second;
    // Relative change in the "worse" direction; negative = improved.
    double Regress = BaseValue > 0.0
                         ? (HigherBetter ? (BaseValue - CurValue) / BaseValue
                                         : (CurValue - BaseValue) / BaseValue)
                         : 0.0;
    bool Bad = Regress > Threshold;
    std::printf("  %-8s %-28s %s: %.6g -> %.6g (%+.1f%%)\n",
                Bad ? "REGRESS" : (Regress < 0.0 ? "improve" : "ok"),
                Key.c_str(), Metric.c_str(), BaseValue, CurValue,
                (HigherBetter ? -Regress : Regress) * 100.0);
    if (Bad)
      ++Regressions;
  }
  for (const auto &[Key, Value] : Cur)
    if (!Base.contains(Key))
      std::printf("  new      %-28s %s: %.6g\n", Key.c_str(), Metric.c_str(),
                  Value);

  if (Compared == 0) {
    std::fprintf(stderr, "ltp-check bench-diff: no comparable rows\n");
    return 2;
  }
  if (Regressions) {
    std::fprintf(stderr,
                 "ltp-check bench-diff: %d row(s) regressed more than "
                 "%.0f%% on '%s'\n",
                 Regressions, Threshold * 100.0, Metric.c_str());
    return 1;
  }
  std::printf("ltp-check bench-diff: %d row(s) within %.0f%% of baseline\n",
              Compared, Threshold * 100.0);
  return 0;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

struct FlagSpec {
  const char *Name;
  bool TakesValue;
};

struct Subcommand {
  const char *Name;
  const char *Usage; ///< the arguments after the subcommand name
  std::vector<FlagSpec> Flags;
  size_t Positional; ///< required number of positional arguments
  int UsageExit;     ///< exit code of a wrong positional count
  int (*Run)(const ParsedArgs &);
};

const Subcommand Subcommands[] = {
    {"trace", "<trace.json> [--require-span NAME]...",
     {{"require-span", true}}, 1, 1, checkTrace},
    {"metrics", "<metrics.txt> [--require-metric NAME[,NAME...]]",
     {{"require-metric", true}}, 1, 1, checkMetrics},
    {"bench-diff",
     "<baseline.json> <current.json> [--metric NAME] [--threshold FRAC] "
     "[--higher-better]",
     {{"metric", true}, {"threshold", true}, {"higher-better", false}}, 2, 2,
     benchDiff},
};

void usage(const Subcommand *Only = nullptr) {
  for (const Subcommand &Sub : Subcommands)
    if (!Only || Only == &Sub)
      std::fprintf(stderr, "usage: ltp-check %s %s\n", Sub.Name, Sub.Usage);
}

/// Parses \p Args against \p Sub's flags: `--name value`, `--name=value`
/// and bare boolean `--name`. Returns false (after a diagnostic) on a
/// flag \p Sub does not declare or a value flag without a value.
bool parseArgs(const Subcommand &Sub, const std::vector<std::string> &Args,
               ParsedArgs &Out) {
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg.size() < 2 || Arg[0] != '-') {
      Out.Positional.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(Arg.rfind("--", 0) == 0 ? 2 : 1);
    size_t Eq = Name.find('=');
    std::string Value = Eq == std::string::npos ? "" : Name.substr(Eq + 1);
    Name = Name.substr(0, Eq);
    const FlagSpec *Spec = nullptr;
    for (const FlagSpec &S : Sub.Flags)
      if (Name == S.Name)
        Spec = &S;
    if (!Spec || (Spec->TakesValue && Eq == std::string::npos &&
                  I + 1 == Args.size())) {
      std::fprintf(stderr, "ltp-check %s: %s option %s\n", Sub.Name,
                   Spec ? "missing value for" : "unknown", Arg.c_str());
      return false;
    }
    if (Spec->TakesValue && Eq == std::string::npos)
      Value = Args[++I];
    Out.Flags[Name].push_back(Value);
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  for (const std::string &Arg : Args)
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    }
  for (const Subcommand &Sub : Subcommands) {
    if (Args.empty() || Args.front() != Sub.Name)
      continue;
    Args.erase(Args.begin());
    ParsedArgs Parsed;
    if (!parseArgs(Sub, Args, Parsed)) {
      usage(&Sub);
      return 2;
    }
    if (Parsed.Positional.size() != Sub.Positional) {
      usage(&Sub);
      return Sub.UsageExit;
    }
    return Sub.Run(Parsed);
  }
  usage();
  return 2;
}
