//===- Stats.h - sample statistics and span self time for perfbench --------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numeric helpers every perfbench metric goes through: quantiles,
/// the tail-percentile choice, the geometric mean, and the self time of a
/// span (its duration minus the part of it its children cover). Header
/// only, with no LTP dependency, so the unit tests build without the
/// library.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_STATS_H
#define LTP_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile \p Q in [0, 1] of \p Samples by linear interpolation between
/// closest ranks (NumPy's default). NaN for an empty sample.
inline double quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return std::nan("");
  std::sort(Samples.begin(), Samples.end());
  double Pos = Q * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

inline double median(std::vector<double> Samples) {
  return quantile(std::move(Samples), 0.5);
}

/// Number of samples strictly above the \p Percent-th percentile position
/// of an \p N-sample run: the ranks after ceil(N * Percent / 100).
inline size_t samplesBeyond(size_t N, double Percent) {
  double Rank = std::ceil(static_cast<double>(N) * Percent / 100.0 - 1e-9);
  return Rank >= static_cast<double>(N) ? 0 : N - static_cast<size_t>(Rank);
}

/// The highest percentile of \p Ladder (ascending) with at least
/// \p MinBeyond samples beyond it in an \p N-sample run; 0 when even the
/// lowest rung has too few.
inline double tailPercentile(size_t N,
                             const std::vector<double> &Ladder = {50, 75, 90,
                                                                  95, 99,
                                                                  99.9},
                             size_t MinBeyond = 10) {
  double Best = 0;
  for (double P : Ladder)
    if (samplesBeyond(N, P) >= MinBeyond)
      Best = P;
  return Best;
}

/// Geometric mean of positive values; NaN when empty or any value <= 0.
inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return std::nan("");
  double LogSum = 0;
  for (double V : Values) {
    if (!(V > 0))
      return std::nan("");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// One recorded span. Times are seconds on one steady clock; Parent is
/// the index of the enclosing span in the same trace, or -1.
struct Span {
  const char *Name = "";
  double Start = 0;
  double End = 0;
  int64_t Parent = -1;
  uint64_t RequestId = 0;
  /// Index of the kernel the span worked on, or -1.
  int Tag = -1;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it (children may overlap when they
/// ran on other threads).
inline std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Children[static_cast<size_t>(S.Parent)].push_back({S.Start, S.End});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    double Lo = Spans[I].Start, Hi = Spans[I].End;
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    double Covered = 0, RunStart = 0, RunEnd = -1;
    bool Open = false;
    for (auto [S, E] : C) {
      S = std::max(S, Lo);
      E = std::min(E, Hi);
      if (E <= S)
        continue;
      if (Open && S <= RunEnd) {
        RunEnd = std::max(RunEnd, E);
        continue;
      }
      if (Open)
        Covered += RunEnd - RunStart;
      RunStart = S;
      RunEnd = E;
      Open = true;
    }
    if (Open)
      Covered += RunEnd - RunStart;
    Self[I] = (Hi - Lo) - Covered;
  }
  return Self;
}

} // namespace perfbench

#endif // LTP_PERFBENCH_STATS_H
