//===- ServeWorkloads.cpp - cold_requests and serve_mix -------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two workloads that talk to an in-process serve::Server over its
/// Unix socket, as a client would.
///
/// cold_requests: one closed-loop client; every pass starts a fresh daemon
/// on an empty kernel store, so every request misses every cache. A pass
/// sends the 12 kernels at their default sizes on each platform with
/// "compile": false, then compiles each kernel once on a seeded platform.
///
/// serve_mix: four closed-loop clients against one daemon whose hot pool
/// was warmed in set-up. Each client's seeded stream is 94% hot repeats, 1%
/// schedule-only misses at sizes no other request uses, 2.5% schedule
/// replays and 2.5% lint requests (the replays and lints are warmed too).
///
/// The traced run replays every request in-process through the layers'
/// public functions (parseRequest, resolveArch, canonicalKey, Create,
/// planStage, lowerPipeline, generateC, JITCompiler::compile,
/// OptimizerService::handle, renderResponse) inside spans.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "analysis/Lint.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"
#include "obs/JsonCheck.h"
#include "obs/Log.h"
#include "serve/Server.h"
#include "support/Format.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <set>
#include <csignal>
#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace ltp;

namespace {

/// A blocking line-protocol client on one connection.
class Client {
public:
  explicit Client(const std::string &Path) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connected() const { return Fd >= 0; }

  /// Sends \p Line and reads one reply line; false on a broken connection.
  bool roundTrip(const std::string &Line, std::string &Reply) {
    std::string Out = Line + "\n";
    for (size_t Off = 0; Off < Out.size();) {
      ssize_t N = ::write(Fd, Out.data() + Off, Out.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    size_t Pos;
    while ((Pos = Buffer.find('\n')) == std::string::npos) {
      char Chunk[8192];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    Reply = Buffer.substr(0, Pos);
    Buffer.erase(0, Pos + 1);
    return true;
  }

private:
  int Fd = -1;
  std::string Buffer;
};

/// One request of a workload's stream.
struct Req {
  Req(std::string Op, int Kernel, int64_t Size, std::string Arch, bool Compile)
      : Op(std::move(Op)), Kernel(Kernel), Size(Size), Arch(std::move(Arch)),
        Compile(Compile) {}

  std::string Op;
  int Kernel;
  int64_t Size;
  std::string Arch;
  bool Compile;
  bool NTI = true;
  std::string Score = "auto";
  std::string Schedule;

  std::string line() const {
    std::string L = strFormat(
        "{\"op\": \"%s\", \"kernel\": \"%s\", \"size\": %lld, \"arch\": "
        "\"%s\", \"compile\": %s, \"nti\": %s, \"score_mode\": \"%s\"",
        Op.c_str(), kernelNames()[static_cast<size_t>(Kernel)].c_str(),
        static_cast<long long>(Size), Arch.c_str(), Compile ? "true" : "false",
        NTI ? "true" : "false", Score.c_str());
    if (!Schedule.empty())
      L += ", \"schedule\": \"" + obs::jsonEscape(Schedule) + "\"";
    return L + "}";
  }
};

/// The fields of a reply the checks look at.
struct Reply {
  bool Ok = false;
  std::string Error;
  std::string Schedule;
  std::string Dedup;
  std::vector<std::string> So;
  bool HasDiagnostics = false;
};

Reply parseReply(const std::string &Line) {
  Reply R;
  std::string Error;
  std::unique_ptr<obs::JsonValue> V = obs::parseJson(Line, &Error);
  if (!V || !V->isObject()) {
    R.Error = "unparseable reply: " + Line.substr(0, 200);
    return R;
  }
  if (const obs::JsonValue *Ok = V->find("ok"))
    R.Ok = Ok->K == obs::JsonValue::Kind::Bool && Ok->BoolValue;
  if (const obs::JsonValue *E = V->find("error"))
    R.Error = E->StringValue;
  if (const obs::JsonValue *S = V->find("schedule"))
    R.Schedule = S->StringValue;
  if (const obs::JsonValue *D = V->find("dedup"))
    R.Dedup = D->StringValue;
  if (const obs::JsonValue *So = V->find("so"))
    for (const obs::JsonValue &P : So->Elements)
      R.So.push_back(P.StringValue);
  R.HasDiagnostics = V->find("diagnostics") != nullptr;
  return R;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

/// Checks one reply against what its request asked for; returns the
/// failure text, or "" when the reply is correct.
std::string checkReply(const Req &Q, const Reply &R) {
  std::string What = Q.Op + " " + kernelNames()[static_cast<size_t>(Q.Kernel)] +
                     " on " + Q.Arch + ": ";
  if (!R.Ok)
    return What + "not ok: " + R.Error;
  if (Q.Op == "lint")
    return R.HasDiagnostics ? "" : What + "no diagnostics array";
  if (R.Schedule.empty())
    return What + "no schedule";
  if (Q.Compile) {
    if (R.So.empty())
      return What + "no .so paths";
    for (const std::string &P : R.So)
      if (!fileExists(P))
        return What + "missing " + P;
  }
  return "";
}

int64_t defaultSize(int Kernel) {
  return allBenchmarks()[static_cast<size_t>(Kernel)].DefaultSize;
}

/// Points the next JITCompiler constructed at \p Dir (created if needed).
void useKernelStore(const std::string &Dir) {
  ::mkdir(Dir.c_str(), 0755);
  setenv("LTP_JIT_CACHE_DIR", Dir.c_str(), 1);
}

/// Replays \p Q in-process through the layers' public functions, one span
/// per call, and returns the time of the calls on the served path. \p
/// ColdJit compiles on an empty store (cc runs); \p LoadJit shares that
/// store with an empty memo, so its compile only loads. Generated C sizes
/// add to \p CBytes.
double replayCold(Tracer &T, uint64_t Rid, const Req &Q, JITCompiler *ColdJit,
                  JITCompiler *LoadJit, double &CBytes) {
  double Served = 0;
  auto Timed = [&](auto &&Fn) {
    double S = now();
    Fn();
    Served += now() - S;
  };
  Tracer::Scope Root(T, "request.replay", Rid, Q.Kernel);
  ErrorOr<serve::Request> Parsed = serve::Request();
  Timed([&] {
    Tracer::Scope S(T, "serve.parse", Rid);
    Parsed = serve::parseRequest(Q.line());
  });
  if (!Parsed)
    return Served;
  ErrorOr<ArchParams> Arch = ArchParams();
  Timed([&] {
    Tracer::Scope S(T, Q.Arch == "host" ? "arch.resolve_host"
                                        : "arch.resolve_named",
                    Rid);
    Arch = serve::resolveArch(*Parsed);
  });
  if (!Arch)
    return Served;
  Timed([&] {
    Tracer::Scope S(T, "serve.key", Rid);
    serve::canonicalKey(*Parsed, *Arch);
  });
  const BenchmarkDef &Def = allBenchmarks()[static_cast<size_t>(Q.Kernel)];
  BenchmarkInstance Inst;
  Timed([&] {
    Tracer::Scope S(T, "benchmarks.create", Rid, Q.Kernel);
    Inst = Def.Create(Q.Size);
  });
  OptimizerOptions Opts;
  Opts.EnableNonTemporal = Q.NTI;
  Timed([&] {
    Tracer::Scope S(T, "core.plan", Rid, Q.Kernel);
    for (size_t I = 0; I != Inst.Stages.size(); ++I) {
      Inst.Stages[I].clearSchedules();
      applyPlan(Inst.Stages[I], planStage(Inst.Stages[I], Inst.StageExtents[I],
                                          *Arch, Opts));
    }
  });
  serve::Response Resp;
  Resp.Ok = true;
  Resp.Kernel = Def.Name;
  {
    // Not on this request's served path: the schedule-replay and lint
    // layers, timed on the schedule just chosen. Replaying it onto the
    // last stage leaves that stage as it was.
    Func &F = Inst.Stages.back();
    int Stage = F.numUpdates() > 0 ? F.numUpdates() - 1 : -1;
    Resp.Schedule = printSchedule(F, Stage);
    {
      Tracer::Scope S(T, "lang.schedule_apply", Rid, Q.Kernel);
      F.clearSchedules();
      (void)applyVerifiedScheduleText(F, Stage, Resp.Schedule,
                                      Inst.StageExtents.back());
    }
    Tracer::Scope S(T, "analysis.lint", Rid, Q.Kernel);
    for (size_t I = 0; I != Inst.Stages.size(); ++I) {
      Func &G = Inst.Stages[I];
      (void)lint::lintStageSchedule(G, G.numUpdates() > 0 ? G.numUpdates() - 1
                                                          : -1,
                                    Inst.StageExtents[I], *Arch);
    }
  }
  if (Q.Compile && ColdJit && LoadJit) {
    std::vector<ir::StmtPtr> Lowered;
    Timed([&] {
      Tracer::Scope S(T, "lang.lower", Rid, Q.Kernel);
      Lowered = lowerPipeline(Inst);
    });
    std::vector<BufferBinding> Sig;
    for (const auto &[Name, Ref] : Inst.Buffers)
      Sig.push_back(BufferBinding::fromRef(Name, Ref));
    CodeGenOptions CG;
    CG.EnableNonTemporal = Q.NTI;
    for (const ir::StmtPtr &St : Lowered) {
      Tracer::Scope S(T, "codegen.generate", Rid, Q.Kernel);
      CBytes += static_cast<double>(
          generateC(St, Sig, "ltp_kernel", CG).size());
    }
    Timed([&] {
      Tracer::Scope S(T, "jit.cc", Rid, Q.Kernel);
      for (const ir::StmtPtr &St : Lowered) {
        auto K = ColdJit->compile(St, Sig, CG);
        if (K)
          Resp.SoPaths.push_back(K->sharedObjectPath());
      }
    });
    Tracer::Scope S(T, "jit.load", Rid, Q.Kernel);
    for (const ir::StmtPtr &St : Lowered)
      (void)LoadJit->compile(St, Sig, CG);
  }
  Timed([&] {
    Tracer::Scope S(T, "serve.render", Rid);
    serve::renderResponse(Resp);
  });
  return Served;
}

/// Per-layer metrics every serve workload derives from its spans.
void serveLayerMetrics(const std::vector<Span> &Spans, Outcome &R) {
  R.Layer["serve.parse_us"] = medianSpan(Spans, "serve.parse", 1e6);
  R.Layer["serve.key_us"] = medianSpan(Spans, "serve.key", 1e6);
  R.Layer["serve.render_us"] = medianSpan(Spans, "serve.render", 1e6);
  R.Layer["serve.hit_us"] = medianSpan(Spans, "serve.hit", 1e6);
  R.Layer["arch.resolve_named_us"] =
      medianSpan(Spans, "arch.resolve_named", 1e6);
  R.Layer["arch.resolve_host_us"] = medianSpan(Spans, "arch.resolve_host", 1e6);
  for (size_t K = 0; K != kernelNames().size(); ++K) {
    R.Layer["benchmarks.create_ms." + kernelNames()[K]] =
        medianSpan(Spans, "benchmarks.create", 1e3, static_cast<int>(K));
    R.Layer["core.plan_ms." + kernelNames()[K]] =
        medianSpan(Spans, "core.plan", 1e3, static_cast<int>(K));
  }
  R.Layer["lang.lower_ms"] = medianSpan(Spans, "lang.lower", 1e3);
  R.Layer["lang.schedule_apply_us"] =
      medianSpan(Spans, "lang.schedule_apply", 1e6);
  R.Layer["analysis.lint_ms"] = medianSpan(Spans, "analysis.lint", 1e3);
  R.Layer["codegen.generate_ms"] = medianSpan(Spans, "codegen.generate", 1e3);
  R.Layer["jit.cc_ms"] = medianSpan(Spans, "jit.cc", 1e3);
  R.Layer["jit.load_ms"] = medianSpan(Spans, "jit.load", 1e3);

  // Share of each replayed request's wall its layer spans cover.
  std::vector<double> Self = selfTimes(Spans);
  double Wall = 0, Uncovered = 0;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (std::strcmp(Spans[I].Name, "request.replay") == 0) {
      Wall += Spans[I].End - Spans[I].Start;
      Uncovered += Self[I];
    }
  R.Layer["obs.attributed_share"] = Wall > 0 ? 1.0 - Uncovered / Wall : 0.0;
}

/// Seconds from spawning the ltp-serve daemon \p Daemon on \p Socket until
/// it answers a ping; the daemon is then shut down and reaped. Negative
/// when it did not come up within ten seconds.
double daemonStartSeconds(const std::string &Daemon, const std::string &Socket) {
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&Actions, 2, "/dev/null", O_WRONLY, 0);
  std::vector<std::string> Args = {Daemon, "--socket", Socket};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  double Start = now();
  pid_t Pid = -1;
  int Spawned =
      posix_spawn(&Pid, Daemon.c_str(), &Actions, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Spawned != 0)
    return -1;
  double Ready = -1;
  bool Reaped = false;
  int Status = 0;
  while (now() - Start < 10) {
    Client C(Socket);
    std::string Reply;
    if (C.connected()) {
      if (C.roundTrip("{\"op\": \"ping\"}", Reply) &&
          Reply.find("\"pong\": true") != std::string::npos) {
        Ready = now() - Start;
        C.roundTrip("{\"op\": \"shutdown\"}", Reply);
      }
      break;
    }
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Reaped = true;
      break;
    }
    ::usleep(100);
  }
  if (!Reaped) {
    if (Ready < 0)
      ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
  }
  return Ready;
}

/// Starts a daemon on \p Socket and waits for a connection to succeed.
std::unique_ptr<serve::Server> startServer(const std::string &Socket,
                                           Outcome &R) {
  auto Srv = std::make_unique<serve::Server>(Socket);
  std::string Error;
  bool Started = Srv->start(&Error);
  R.check(Started, "server start: " + Error);
  return Started ? std::move(Srv) : nullptr;
}

} // namespace

Outcome perfbench::runColdRequests(const Options &O, Tracer &T) {
  Outcome R;
  std::mt19937_64 Rng(O.Seed);
  const int NumKernels = static_cast<int>(kernelNames().size());
  std::map<std::string, std::string> Schedules; // request line -> schedule
  double CBytes = 0;
  std::vector<double> WallSeconds, ServedSeconds;
  int64_t CcTotal = 0;
  double ClientSeconds = 0;
  uint64_t Rid = 0;

  // Set-up: the start-up of a fresh ltp-serve daemon process on an empty
  // store, until it answers a ping, five times. (The passes below use an
  // in-process daemon, whose counters the benchmark reads.)
  for (int Rep = 0; Rep != 5; ++Rep) {
    std::string Tag = "s" + std::to_string(Rep);
    useKernelStore(O.WorkDir + "/cold-store-" + Tag);
    double Seconds = daemonStartSeconds(O.DaemonPath, "cold-" + Tag + ".sock");
    R.check(Seconds > 0, "the ltp-serve daemon did not start");
    if (Seconds > 0)
      R.SetupSeconds.push_back(Seconds);
  }
  double Start = now();

  int Pass = 0;
  for (; Pass == 0 || now() < Start + O.Seconds; ++Pass) {
    // A fresh daemon on an empty kernel store.
    std::string Tag = std::to_string(Pass);
    useKernelStore(O.WorkDir + "/cold-store-" + Tag);
    std::unique_ptr<serve::Server> Srv =
        startServer("cold-" + Tag + ".sock", R);
    if (!Srv)
      break;
    Client C(Srv->socketPath());
    R.check(C.connected(), "connect to the cold daemon");
    if (!C.connected())
      break;
    std::unique_ptr<JITCompiler> ColdJit, LoadJit;
    if (T.enabled()) {
      useKernelStore(O.WorkDir + "/replay-store-" + Tag);
      ColdJit = std::make_unique<JITCompiler>();
      LoadJit = std::make_unique<JITCompiler>();
    }

    std::vector<Req> Stream;
    for (int K = 0; K != NumKernels; ++K)
      for (const std::string &A : platformNames())
        Stream.push_back(Req{"optimize", K, defaultSize(K), A, false});
    std::shuffle(Stream.begin(), Stream.end(), Rng);
    std::vector<int> Order(static_cast<size_t>(NumKernels));
    std::iota(Order.begin(), Order.end(), 0);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (int K : Order)
      Stream.push_back(Req{"optimize", K, defaultSize(K),
                           platformNames()[Rng() % platformNames().size()],
                           true});

    std::set<std::string> SoPaths;
    int64_t Cc0 = counterValue("jit.cc_invocations");
    for (const Req &Q : Stream) {
      std::string Line = Q.line(), ReplyLine;
      double S = now();
      bool Sent = C.roundTrip(Line, ReplyLine);
      double Wall = now() - S;
      ClientSeconds += Wall;
      R.op(Wall * 1e3, Q.Kernel * 2 + Q.Compile);
      Reply Rep = Sent ? parseReply(ReplyLine) : Reply{};
      std::string Bad = Sent ? checkReply(Q, Rep) : "connection lost";
      R.check(Bad.empty(), Bad);
      // Every pass must produce the schedules of the first.
      auto [It, New] = Schedules.emplace(Line, Rep.Schedule);
      R.check(New || It->second == Rep.Schedule,
              "schedule changed between passes for " + Line);
      SoPaths.insert(Rep.So.begin(), Rep.So.end());
      if (T.enabled()) {
        int64_t CcBefore = counterValue("jit.cc_invocations");
        ServedSeconds.push_back(
            replayCold(T, ++Rid, Q, ColdJit.get(), LoadJit.get(), CBytes));
        CcTotal += counterValue("jit.cc_invocations") - CcBefore;
        WallSeconds.push_back(Wall);
      }
      if (!Sent)
        break;
    }
    // An empty store means every compile ran cc exactly once per
    // distinct kernel object: a warm store would show fewer.
    int64_t Cc = counterValue("jit.cc_invocations") - Cc0 -
                 (T.enabled() ? CcTotal : 0);
    CcTotal = 0;
    R.check(Cc == static_cast<int64_t>(SoPaths.size()) && Cc > 0,
            strFormat("pass %d: %lld cc invocations for %zu kernel objects",
                      Pass, static_cast<long long>(Cc), SoPaths.size()));
    R.Layer["jit.cc_invocations"] += static_cast<double>(Cc);
  }
  R.OpSeconds = ClientSeconds;
  R.Notes.push_back(strFormat(
      "cold_requests: %d passes of %d schedule-only + %d compile requests",
      Pass, NumKernels * 4, NumKernels));

  if (T.enabled()) {
    std::vector<Span> Spans = T.spans();
    serveLayerMetrics(Spans, R);
    size_t Gens = 0;
    for (const Span &S : Spans)
      Gens += std::strcmp(S.Name, "codegen.generate") == 0;
    R.Layer["codegen.c_bytes"] = Gens ? CBytes / Gens : 0.0;
    double Wall = 0, Served = 0;
    for (size_t I = 0; I != WallSeconds.size(); ++I) {
      Wall += WallSeconds[I];
      Served += ServedSeconds[I];
    }
    R.Layer["serve.unattributed_share"] = Wall > 0 ? (Wall - Served) / Wall : 0;
    R.Layer["obs.trace_overhead"] = traceOverhead(Spans.size(), now() - Start);
  }
  return R;
}

namespace {

/// The warmed request pool of serve_mix: hot optimize requests (the client
/// default, compile on) for every kernel and platform, one schedule replay
/// and one lint request per kernel.
std::vector<Req> hotPool() {
  std::vector<Req> Pool;
  for (int K = 0; K != static_cast<int>(kernelNames().size()); ++K)
    for (const std::string &A : platformNames())
      Pool.push_back(Req{"optimize", K, defaultSize(K), A, true});
  return Pool;
}

/// Request \p N of client \p Client's stream (deterministic in the seed).
struct MixStream {
  std::mt19937_64 Rng;
  int Client;
  std::vector<int> MissesPerKernel;
  const std::vector<Req> *Hot;
  const std::vector<Req> *Replays;
  const std::vector<Req> *Lints;

  /// Kind: 0 hot, 1 miss, 2 replay, 3 lint.
  std::pair<int, Req> next() {
    double U = std::uniform_real_distribution<double>(0, 1)(Rng);
    auto Pick = [&](const std::vector<Req> &V) {
      return V[Rng() % V.size()];
    };
    if (U < 0.94)
      return {0, Pick(*Hot)};
    if (U < 0.965)
      return {2, Pick(*Replays)};
    if (U < 0.99)
      return {3, Pick(*Lints)};
    // A schedule-only miss: a (size, platform, nti, score mode) combination
    // no other request of the run uses. Sixteen combinations per size keep
    // the sizes near a quarter of the default, so a miss costs about the
    // same early and late in a run.
    int K = static_cast<int>(Rng() % MissesPerKernel.size());
    int M = Client + 4 * MissesPerKernel[static_cast<size_t>(K)]++;
    Req Q{"optimize", K, 0, platformNames()[static_cast<size_t>(M % 4)], false};
    Q.NTI = (M / 4) % 2 == 0;
    Q.Score = (M / 8) % 2 == 0 ? "auto" : "analytic";
    Q.Size = defaultSize(K) / 4 + 4 * (M / 16);
    if (Q.Size >= defaultSize(K))
      Q.Size += 4;
    return {1, Q};
  }
};

} // namespace

Outcome perfbench::runServeMix(const Options &O, Tracer &T) {
  Outcome R;
  const int Clients = 4;
  std::vector<Req> Hot = hotPool(), Replays, Lints;
  std::map<std::string, std::string> Expected; // request line -> schedule

  // Set-up: start the daemon (ltp-serve defaults, shared kernel store)
  // and warm the pool on one connection. The first set-up may run cc on a
  // fresh checkout; it is repeated until one finds the store warm, then
  // twice more, and the median of the warm ones is reported.
  useKernelStore(O.StoreDir);
  std::unique_ptr<serve::Server> Srv;
  std::unique_ptr<serve::OptimizerService> Local;
  int Warm = 0;
  for (int Setup = 0; Warm < 3 && Setup < 6; ++Setup) {
    Srv.reset();
    Local.reset();
    double S = now();
    int64_t Cc0 = counterValue("jit.cc_invocations");
    Srv = startServer("mix-" + std::to_string(Setup) + ".sock", R);
    if (!Srv)
      return R;
    Client C(Srv->socketPath());
    R.check(C.connected(), "connect to the serve_mix daemon");
    if (!C.connected())
      return R;
    auto Warmup = [&](const Req &Q) {
      std::string Line = Q.line(), ReplyLine;
      bool Sent = C.roundTrip(Line, ReplyLine);
      Reply Rep = Sent ? parseReply(ReplyLine) : Reply{};
      std::string Bad = Sent ? checkReply(Q, Rep) : "connection lost";
      R.check(Bad.empty(), "warm-up " + Bad);
      auto [It, New] = Expected.emplace(Line, Rep.Schedule);
      R.check(New || It->second == Rep.Schedule,
              "schedule changed between set-ups for " + Line);
      return Rep;
    };
    Replays.clear();
    Lints.clear();
    for (const Req &Q : Hot) {
      Reply Rep = Warmup(Q);
      if (Q.Arch == "6700") {
        Req Replay{"optimize", Q.Kernel, Q.Size, "6700", false};
        Replay.Schedule = Rep.Schedule;
        Replays.push_back(Replay);
        Lints.push_back(Req{"lint", Q.Kernel, Q.Size, "a15", false});
      }
    }
    for (const Req &Q : Replays)
      Warmup(Q);
    for (const Req &Q : Lints)
      Warmup(Q);
    if (T.enabled()) {
      // The in-process service the traced replay times dedup hits on.
      Local = std::make_unique<serve::OptimizerService>();
      for (const std::vector<Req> *V : {&Hot, &Replays, &Lints})
        for (const Req &Q : *V)
          if (auto P = serve::parseRequest(Q.line()))
            Local->handle(*P);
    }
    if (counterValue("jit.cc_invocations") == Cc0) {
      R.SetupSeconds.push_back(now() - S);
      ++Warm;
    }
  }
  R.check(Warm > 0, "the kernel store never came up warm");

  // Timed phase: closed-loop clients until the deadline.
  struct Sample {
    int Kernel = 0;
    double Wall = 0;
    double Served = 0;
    bool Hit = false;
    bool Replayed = false;
  };
  std::vector<std::vector<Sample>> Samples(Clients);
  std::vector<Outcome> Checks(Clients);
  std::atomic<uint64_t> NextRid{1};
  std::map<int, uint64_t> KindCounts;
  std::mutex KindMu;
  double Start = now(), Deadline = Start + O.Seconds;
  std::vector<std::thread> Threads;
  for (int I = 0; I != Clients; ++I)
    Threads.emplace_back([&, I] {
      MixStream Stream{std::mt19937_64(O.Seed * 1000003 + I), I,
                       std::vector<int>(kernelNames().size(), 0), &Hot,
                       &Replays, &Lints};
      Client C(Srv->socketPath());
      Checks[I].check(C.connected(), "client connect");
      if (!C.connected())
        return;
      std::map<int, uint64_t> Kinds;
      while (now() < Deadline) {
        auto [Kind, Q] = Stream.next();
        ++Kinds[Kind];
        std::string Line = Q.line(), ReplyLine;
        double S = now();
        bool Sent = C.roundTrip(Line, ReplyLine);
        Sample Smp;
        Smp.Wall = now() - S;
        Smp.Kernel = Q.Kernel;
        Reply Rep = Sent ? parseReply(ReplyLine) : Reply{};
        std::string Bad = Sent ? checkReply(Q, Rep) : "connection lost";
        if (Bad.empty() && Kind != 1 && Kind != 3) {
          auto It = Expected.find(Line);
          if (It == Expected.end() || It->second != Rep.Schedule)
            Bad = "hot reply differs from its warm-up schedule: " + Line;
        }
        Checks[I].check(Bad.empty(), Bad);
        Smp.Hit = Rep.Dedup == "cached" || Rep.Dedup == "inflight";
        if (T.enabled() && Local && Samples[I].size() % 32 == 0) {
          // One request in 32 is replayed, which keeps the spans of a run
          // to a few megabytes. Served path of the replay: parse,
          // OptimizerService::handle, render. The separate resolve and key
          // spans time the two steps handle() runs first.
          Smp.Replayed = true;
          uint64_t Rid = NextRid++;
          Tracer::Scope Root(T, "request.replay", Rid, Q.Kernel);
          ErrorOr<serve::Request> P = serve::Request();
          double P0 = now();
          {
            Tracer::Scope Sp(T, "serve.parse", Rid);
            P = serve::parseRequest(Line);
          }
          double P1 = now();
          if (P) {
            ErrorOr<ArchParams> Arch = ArchParams();
            {
              Tracer::Scope Sp(T, Q.Arch == "host" ? "arch.resolve_host"
                                                   : "arch.resolve_named",
                               Rid);
              Arch = serve::resolveArch(*P);
            }
            if (Arch) {
              Tracer::Scope Sp(T, "serve.key", Rid);
              serve::canonicalKey(*P, *Arch);
            }
            double H0 = now();
            serve::Response Resp;
            {
              Tracer::Scope Sp(T, Kind == 1 ? "serve.miss" : "serve.hit",
                               Rid, Q.Kernel);
              Resp = Local->handle(*P);
            }
            {
              Tracer::Scope Sp(T, "serve.render", Rid);
              serve::renderResponse(Resp);
            }
            // handle() resolves and keys on its own, so the standalone
            // resolve and key calls are not on the served path.
            Smp.Served = (P1 - P0) + (now() - H0);
          }
        }
        Samples[I].push_back(Smp);
        if (!Sent)
          break;
      }
      std::lock_guard<std::mutex> Lock(KindMu);
      for (auto [K, N] : Kinds)
        KindCounts[K] += N;
    });
  for (std::thread &Th : Threads)
    Th.join();
  R.OpSeconds = now() - Start;

  double Wall = 0, Served = 0, Hits = 0;
  for (int I = 0; I != Clients; ++I) {
    R.Attempted += Checks[I].Attempted;
    R.Failed += Checks[I].Failed;
    R.FailureNotes.insert(R.FailureNotes.end(),
                          Checks[I].FailureNotes.begin(),
                          Checks[I].FailureNotes.end());
    for (const Sample &S : Samples[I]) {
      R.op(S.Wall * 1e3, S.Kernel);
      if (S.Replayed) {
        Wall += S.Wall;
        Served += S.Served;
      }
      Hits += S.Hit;
    }
  }
  double Total = static_cast<double>(R.OpMillis.size());
  R.Notes.push_back(strFormat(
      "serve_mix: %d clients, %.0f requests: %llu hot, %llu misses, %llu "
      "replays, %llu lints; dedup hit share %.4f",
      Clients, Total, static_cast<unsigned long long>(KindCounts[0]),
      static_cast<unsigned long long>(KindCounts[1]),
      static_cast<unsigned long long>(KindCounts[2]),
      static_cast<unsigned long long>(KindCounts[3]),
      Total > 0 ? Hits / Total : 0.0));
  if (T.enabled()) {
    std::vector<Span> Spans = T.spans();
    serveLayerMetrics(Spans, R);
    R.Layer["serve.dedup_hit_share"] = Total > 0 ? Hits / Total : 0.0;
    R.Layer["serve.unattributed_share"] = Wall > 0 ? (Wall - Served) / Wall : 0;
    R.Layer["obs.trace_overhead"] = traceOverhead(Spans.size(), R.OpSeconds);
  }
  return R;
}
