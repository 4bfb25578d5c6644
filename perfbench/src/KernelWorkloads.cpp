//===- KernelWorkloads.cpp - kernel_run and simulate ----------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two workloads that call the library directly.
///
/// kernel_run: the 12 kernels at their default sizes, scheduled for the
/// host with Proposed+NTI and with the developer baseline
/// (applyBaselineSchedule), compiled from the shared kernel store and run
/// interleaved in rounds of seeded order. Both outputs of every kernel are
/// checked with verifyOutput after the timed phase.
///
/// simulate: simulatePipeline for the 12 kernels at an eighth of their
/// default sizes on a15, 5930k and 6700 with Proposed+NTI schedules, in
/// passes of seeded order drained by four threads. Every pass must
/// reproduce the miss counts the first pass recorded.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <sys/stat.h>
#include <thread>

using namespace perfbench;
using namespace ltp;

namespace {

/// Plans and applies Proposed+NTI on every stage of \p Inst.
void scheduleProposed(Tracer &T, BenchmarkInstance &Inst, const ArchParams &A,
                      int K) {
  Tracer::Scope S(T, "core.plan", 0, K);
  OptimizerOptions Opts;
  Opts.EnableNonTemporal = true;
  for (size_t I = 0; I != Inst.Stages.size(); ++I) {
    Inst.Stages[I].clearSchedules();
    applyPlan(Inst.Stages[I],
              planStage(Inst.Stages[I], Inst.StageExtents[I], A, Opts));
  }
}

struct KernelCase {
  int Kernel = 0;
  BenchmarkInstance Inst;
  CompiledPipeline Proposed, Baseline;
};

/// Builds, schedules and compiles both variants of every kernel. Returns
/// false (with the failure recorded) when a compile fails.
bool buildKernelCases(Tracer &T, JITCompiler &Jit, const ArchParams &Host,
                      std::vector<std::unique_ptr<KernelCase>> &Cases,
                      Outcome &R, double &CBytes, int &CSources) {
  Cases.clear();
  const std::vector<BenchmarkDef> &Defs = allBenchmarks();
  for (int K = 0; K != static_cast<int>(Defs.size()); ++K) {
    auto C = std::make_unique<KernelCase>();
    C->Kernel = K;
    {
      Tracer::Scope S(T, "benchmarks.create", 0, K);
      C->Inst = Defs[static_cast<size_t>(K)].Create(
          Defs[static_cast<size_t>(K)].DefaultSize);
    }
    CodeGenOptions CG;
    scheduleProposed(T, C->Inst, Host, K);
    std::vector<PipelineCompileJob> Jobs;
    {
      Tracer::Scope S(T, "lang.lower", 0, K);
      Jobs.push_back(makeCompileJob(C->Inst, CG));
    }
    if (T.enabled()) {
      std::vector<BufferBinding> Sig;
      for (const auto &[Name, Ref] : C->Inst.Buffers)
        Sig.push_back(BufferBinding::fromRef(Name, Ref));
      for (const ir::StmtPtr &St : Jobs.back().Stages) {
        Tracer::Scope S(T, "codegen.generate", 0, K);
        CBytes += static_cast<double>(
            generateC(St, Sig, "ltp_kernel", CG).size());
        ++CSources;
      }
    }
    for (size_t I = 0; I != C->Inst.Stages.size(); ++I) {
      C->Inst.Stages[I].clearSchedules();
      applyBaselineSchedule(C->Inst.Stages[I], C->Inst.StageExtents[I], Host);
    }
    Jobs.push_back(makeCompileJob(C->Inst, CG));
    std::vector<ErrorOr<CompiledPipeline>> Built;
    {
      Tracer::Scope S(T, "jit.load", 0, K);
      Built = compilePipelines(Jobs, Jit);
    }
    bool Ok = Built.size() == 2 && Built[0] && Built[1];
    R.check(Ok, "compile " + Defs[static_cast<size_t>(K)].Name + ": " +
                    (Built.size() == 2 && !Built[0] ? Built[0].getError()
                     : Built.size() == 2 && !Built[1] ? Built[1].getError()
                                                      : ""));
    if (!Ok)
      return false;
    C->Proposed = std::move(*Built[0]);
    C->Baseline = std::move(*Built[1]);
    Cases.push_back(std::move(C));
  }
  return true;
}

/// Runs \p Fn over the items of \p Order on four threads, in that order.
template <typename FnT>
void parallelItems(const std::vector<size_t> &Order, FnT Fn) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I != 4; ++I)
    Threads.emplace_back([&] {
      for (size_t J; (J = Next++) < Order.size();)
        Fn(Order[J]);
    });
  for (std::thread &Th : Threads)
    Th.join();
}

} // namespace

Outcome perfbench::runKernelRun(const Options &O, Tracer &T) {
  Outcome R;
  std::mt19937_64 Rng(O.Seed);
  setenv("LTP_JIT_CACHE_DIR", O.StoreDir.c_str(), 1);
  ::mkdir(O.StoreDir.c_str(), 0755);
  std::unique_ptr<JITCompiler> Jit;
  ArchParams Host = detectHost();
  std::vector<std::unique_ptr<KernelCase>> Cases;
  double CBytes = 0;
  int CSources = 0;

  // Set-up, repeated: the first may compile into a cold store and is then
  // not counted; three warm ones give the median.
  int Warm = 0;
  for (int Setup = 0; Warm < 3 && Setup < 6; ++Setup) {
    Cases.clear();
    double S = now();
    int64_t Cc0 = counterValue("jit.cc_invocations");
    // A fresh memo each time, so every set-up loads from the store.
    Jit = std::make_unique<JITCompiler>();
    if (!buildKernelCases(T, *Jit, Host, Cases, R, CBytes, CSources))
      return R;
    if (counterValue("jit.cc_invocations") == Cc0) {
      R.SetupSeconds.push_back(now() - S);
      ++Warm;
    }
  }
  R.check(Warm > 0, "the kernel store never came up warm");

  double BufferBytes = 0;
  for (const auto &C : Cases)
    for (const auto &[Name, Ref] : C->Inst.Buffers)
      BufferBytes += static_cast<double>(Ref.numElements()) *
                     static_cast<double>(Ref.ElemType.bytes());

  // Timed phase, after one untimed round: rounds of every kernel in seeded
  // order, the two schedules back to back in alternating order. A kernel
  // with less work repeats within a round (sqrt of its work ratio to the
  // largest, at most 16 times), so cheap kernels get enough samples for a
  // steady median while the round's mix stays fixed.
  const size_t NumKernels = Cases.size();
  double MaxWork = 0;
  for (const auto &C : Cases) {
    C->Proposed.run(C->Inst);
    C->Baseline.run(C->Inst);
    MaxWork = std::max(MaxWork, C->Inst.Work);
  }
  std::vector<int> Reps(NumKernels);
  for (size_t K = 0; K != NumKernels; ++K)
    Reps[K] = static_cast<int>(std::clamp(
        std::round(std::sqrt(MaxWork / Cases[K]->Inst.Work)), 1.0, 16.0));
  std::vector<std::vector<double>> Prop(NumKernels), Base(NumKernels);
  std::vector<size_t> Order(NumKernels);
  std::iota(Order.begin(), Order.end(), 0);
  double Start = now();
  int Rounds = 0;
  for (; Rounds == 0 || now() < Start + O.Seconds; ++Rounds) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t K : Order) {
      KernelCase &C = *Cases[K];
      int Tag = static_cast<int>(K);
      for (int Which = 0; Which != 2 * Reps[K]; ++Which) {
        bool RunProposed = (Which % 2 == 0) == (Rounds % 2 == 0);
        double S = now();
        if (RunProposed) {
          Tracer::Scope Sp(T, "runtime.kernel", 0, Tag);
          C.Proposed.run(C.Inst);
        } else {
          Tracer::Scope Sp(T, "runtime.baseline", 0, Tag);
          C.Baseline.run(C.Inst);
        }
        double Ms = (now() - S) * 1e3;
        (RunProposed ? Prop : Base)[K].push_back(Ms);
        if (RunProposed)
          R.op(Ms, Tag);
        else
          ++R.Completed;
      }
    }
  }
  double TimedWall = now() - Start;
  R.OpSeconds = TimedWall;

  // Correctness: each schedule's output against the reference oracle. The
  // pipelines run on this thread; the oracles, which dominate, run four at
  // a time, largest first.
  std::vector<size_t> ByWork(NumKernels);
  std::iota(ByWork.begin(), ByWork.end(), 0);
  std::sort(ByWork.begin(), ByWork.end(), [&](size_t A, size_t B) {
    return Cases[A]->Inst.Work > Cases[B]->Inst.Work;
  });
  std::vector<char> Verified(NumKernels * 2, 0);
  for (int Which = 0; Which != 2; ++Which) {
    for (const auto &C : Cases)
      (Which == 0 ? C->Proposed : C->Baseline).run(C->Inst);
    parallelItems(ByWork, [&](size_t K) {
      Tracer::Scope Sp(T, "benchmarks.verify", 0, static_cast<int>(K));
      Verified[K * 2 + static_cast<size_t>(Which)] =
          verifyOutput(Cases[K]->Inst);
    });
  }
  for (size_t K = 0; K != NumKernels; ++K)
    for (int Which = 0; Which != 2; ++Which)
      R.check(Verified[K * 2 + static_cast<size_t>(Which)],
              "verifyOutput " + kernelNames()[K] +
                  (Which == 0 ? " (Proposed+NTI)" : " (baseline)"));

  std::vector<double> Ratios;
  std::string Line = "kernel_run medians (proposed / baseline ms):";
  for (size_t K = 0; K != NumKernels; ++K) {
    double P = median(Prop[K]), B = median(Base[K]);
    Ratios.push_back(B / P);
    Line += strFormat(" %s %.3f/%.3f", kernelNames()[K].c_str(), P, B);
  }
  double Speedup = geomean(Ratios);
  std::string RepText;
  for (size_t K = 0; K != NumKernels; ++K)
    RepText += strFormat(" %s x%d", kernelNames()[K].c_str(), Reps[K]);
  R.Notes.push_back(strFormat("kernel_run: %d rounds of%s; speedup_vs_baseline "
                              "(geomean of baseline/proposed) %.4f",
                              Rounds, RepText.c_str(), Speedup));
  R.Notes.push_back(Line);

  if (T.enabled()) {
    std::vector<Span> Spans = T.spans();
    for (size_t K = 0; K != NumKernels; ++K) {
      const std::string &N = kernelNames()[K];
      int Tag = static_cast<int>(K);
      R.Layer["benchmarks.create_ms." + N] =
          medianSpan(Spans, "benchmarks.create", 1e3, Tag);
      R.Layer["core.plan_ms." + N] = medianSpan(Spans, "core.plan", 1e3, Tag);
      R.Layer["runtime.kernel_ms." + N] = median(Prop[K]);
      R.Layer["runtime.baseline_ms." + N] = median(Base[K]);
      R.Layer["benchmarks.verify_ms." + N] =
          medianSpan(Spans, "benchmarks.verify", 1e3, Tag);
    }
    R.Layer["runtime.speedup_vs_baseline"] = Speedup;
    R.Layer["benchmarks.buffer_mb"] = BufferBytes / (1024.0 * 1024.0);
    R.Layer["lang.lower_ms"] = medianSpan(Spans, "lang.lower", 1e3);
    R.Layer["codegen.generate_ms"] = medianSpan(Spans, "codegen.generate", 1e3);
    R.Layer["codegen.c_bytes"] = CSources ? CBytes / CSources : 0.0;
    R.Layer["jit.load_ms"] = medianSpan(Spans, "jit.load", 1e3);
    R.Layer["obs.trace_overhead"] = traceOverhead(Spans.size(), TimedWall);
  }
  return R;
}

namespace {

struct SimCase {
  int Kernel = 0;
  ArchParams Arch;
  BenchmarkInstance Inst;
};

/// The counts a repeated simulation must reproduce exactly.
std::vector<uint64_t> simCounts(const SimResult &S) {
  const HierarchyStats &H = S.Stats;
  return {S.Accesses,         H.L1.DemandMisses,   H.L2.DemandMisses,
          H.L3.DemandMisses,  H.MemoryAccesses,    H.PrefetchMemoryFills,
          H.Writebacks,       H.NonTemporalStores, H.PrefetchIssuedL1,
          H.PrefetchIssuedL2};
}

} // namespace

Outcome perfbench::runSimulate(const Options &O, Tracer &T) {
  Outcome R;
  std::mt19937_64 Rng(O.Seed);
  const std::vector<BenchmarkDef> &Defs = allBenchmarks();
  const ArchParams Archs[] = {armCortexA15(), intelI7_5930K(), intelI7_6700()};
  std::vector<std::unique_ptr<SimCase>> Cases;

  // Set-up, five times: build and schedule every (kernel, platform) case.
  for (int Setup = 0; Setup != 5; ++Setup) {
    Cases.clear();
    double S = now();
    for (int K = 0; K != static_cast<int>(Defs.size()); ++K)
      for (const ArchParams &A : Archs) {
        auto C = std::make_unique<SimCase>();
        C->Kernel = K;
        C->Arch = A;
        {
          Tracer::Scope Sp(T, "benchmarks.create", 0, K);
          C->Inst = Defs[static_cast<size_t>(K)].Create(
              Defs[static_cast<size_t>(K)].DefaultSize / 8);
        }
        scheduleProposed(T, C->Inst, A, K);
        Cases.push_back(std::move(C));
      }
    R.SetupSeconds.push_back(now() - S);
  }

  std::vector<std::vector<uint64_t>> Recorded(Cases.size());
  std::vector<double> KernelSeconds(Defs.size(), 0.0);
  std::vector<double> KernelAccesses(Defs.size(), 0.0);
  size_t FastPaths = 0, Fallbacks = 0;
  std::vector<size_t> Order(Cases.size());
  std::iota(Order.begin(), Order.end(), 0);
  double Start = now();
  int Passes = 0;
  double SimSeconds = 0;
  for (; Passes == 0 || now() < Start + O.Seconds; ++Passes) {
    // Four client threads drain the pass, as a parameter sweep would.
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::vector<SimResult> Sims(Cases.size());
    std::vector<double> Secs(Cases.size());
    parallelItems(Order, [&](size_t I) {
      SimCase &C = *Cases[I];
      double S = now();
      {
        Tracer::Scope Sp(T, "cachesim.simulate", 0, C.Kernel);
        Sims[I] = simulatePipeline(C.Inst, C.Arch);
      }
      Secs[I] = now() - S;
    });
    for (size_t I : Order) {
      const SimCase &C = *Cases[I];
      const SimResult &Sim = Sims[I];
      R.op(Secs[I] * 1e3, static_cast<int>(I));
      SimSeconds += Secs[I];
      KernelSeconds[static_cast<size_t>(C.Kernel)] += Secs[I];
      KernelAccesses[static_cast<size_t>(C.Kernel)] +=
          static_cast<double>(Sim.Accesses);
      FastPaths += Sim.FastPath;
      Fallbacks += Sim.Engine != TraceEngine::AccessProgram;
      std::vector<uint64_t> Counts = simCounts(Sim);
      if (Recorded[I].empty()) {
        Recorded[I] = Counts;
        R.check(Sim.Accesses > 0,
                "no accesses simulated for " + kernelNames()[C.Kernel]);
      } else {
        R.check(Counts == Recorded[I],
                "simulated counts changed for " + kernelNames()[C.Kernel] +
                    " on " + C.Arch.Name);
      }
    }
  }
  R.OpSeconds = now() - Start;
  double Accesses = std::accumulate(KernelAccesses.begin(),
                                    KernelAccesses.end(), 0.0);
  R.Notes.push_back(strFormat(
      "simulate: %d passes of %zu simulations, %.1f Maccess/s overall",
      Passes, Cases.size(), Accesses / SimSeconds / 1e6));

  if (T.enabled()) {
    std::vector<Span> Spans = T.spans();
    for (size_t K = 0; K != Defs.size(); ++K) {
      const std::string &N = kernelNames()[K];
      int Tag = static_cast<int>(K);
      R.Layer["benchmarks.create_ms." + N] =
          medianSpan(Spans, "benchmarks.create", 1e3, Tag);
      R.Layer["core.plan_ms." + N] = medianSpan(Spans, "core.plan", 1e3, Tag);
      R.Layer["cachesim.maccess_per_s." + N] =
          KernelAccesses[K] / KernelSeconds[K] / 1e6;
    }
    double Sims = static_cast<double>(R.OpMillis.size());
    R.Layer["cachesim.maccess_per_s"] = Accesses / SimSeconds / 1e6;
    R.Layer["cachesim.fastpath_share"] = static_cast<double>(FastPaths) / Sims;
    R.Layer["interp.fallbacks"] =
        static_cast<double>(Fallbacks) / static_cast<double>(Passes);
    R.Layer["obs.trace_overhead"] =
        traceOverhead(Spans.size(), now() - Start);
  }
  return R;
}
