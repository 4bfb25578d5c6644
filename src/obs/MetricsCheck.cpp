//===- MetricsCheck.cpp - Prometheus exposition validation ----------------===//

#include "obs/MetricsCheck.h"

#include "support/Format.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

using namespace ltp;
using namespace ltp::obs;

namespace {

bool isNameStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
         C == ':';
}

bool isNameChar(char C) {
  return isNameStart(C) || (C >= '0' && C <= '9');
}

bool validMetricName(const std::string &Name) {
  if (Name.empty() || !isNameStart(Name[0]))
    return false;
  for (char C : Name)
    if (!isNameChar(C))
      return false;
  return true;
}

/// One parsed sample line.
struct Sample {
  std::string Name;
  std::string Labels; ///< raw text between braces, possibly empty
  double Value = 0.0;
  size_t LineNo = 0;
};

/// Per-family accumulated state.
struct Family {
  std::string Type; ///< "counter" / "gauge" / "histogram"
  std::vector<Sample> Buckets;
  bool SawSum = false;
  bool SawCount = false;
  double Sum = 0.0;
  double Count = -1.0;
  size_t Samples = 0;
};

bool fail(std::string *Error, size_t LineNo, const std::string &Line,
          const std::string &Why) {
  if (Error)
    *Error = strFormat("line %zu: %s: %s", LineNo, Why.c_str(), Line.c_str());
  return false;
}

/// Parses `name{labels} value` / `name value`. Returns false on grammar
/// errors.
bool parseSample(const std::string &Line, Sample *Out, std::string *Why) {
  size_t I = 0;
  while (I < Line.size() && isNameChar(Line[I]))
    ++I;
  Out->Name = Line.substr(0, I);
  if (!validMetricName(Out->Name)) {
    *Why = "invalid metric name";
    return false;
  }
  if (I < Line.size() && Line[I] == '{') {
    size_t Close = Line.find('}', I);
    if (Close == std::string::npos) {
      *Why = "unterminated label set";
      return false;
    }
    Out->Labels = Line.substr(I + 1, Close - I - 1);
    I = Close + 1;
  }
  if (I >= Line.size() || Line[I] != ' ') {
    *Why = "expected ' ' before value";
    return false;
  }
  while (I < Line.size() && Line[I] == ' ')
    ++I;
  const std::string ValueText = Line.substr(I);
  if (ValueText.empty()) {
    *Why = "missing value";
    return false;
  }
  char *End = nullptr;
  Out->Value = std::strtod(ValueText.c_str(), &End);
  if (End == ValueText.c_str() || *End != '\0') {
    *Why = "unparseable value";
    return false;
  }
  if (std::isnan(Out->Value)) {
    *Why = "NaN value";
    return false;
  }
  return true;
}

/// Extracts the `le` bound from a bucket label set. Returns false when
/// absent/malformed; +Inf parses to infinity.
bool parseLeBound(const std::string &Labels, double *Bound,
                  std::string *Why) {
  const std::string Prefix = "le=\"";
  size_t Pos = Labels.find(Prefix);
  if (Pos == std::string::npos) {
    *Why = "_bucket sample without le label";
    return false;
  }
  size_t Start = Pos + Prefix.size();
  size_t End = Labels.find('"', Start);
  if (End == std::string::npos) {
    *Why = "unterminated le label";
    return false;
  }
  const std::string Text = Labels.substr(Start, End - Start);
  if (Text == "+Inf") {
    *Bound = std::numeric_limits<double>::infinity();
    return true;
  }
  char *NumEnd = nullptr;
  *Bound = std::strtod(Text.c_str(), &NumEnd);
  if (NumEnd == Text.c_str() || *NumEnd != '\0' || std::isnan(*Bound)) {
    *Why = "unparseable le bound";
    return false;
  }
  return true;
}

/// Strips a histogram sample suffix, returning the family name the
/// sample belongs to given the set of declared families.
std::string familyOf(const std::string &Name,
                     const std::map<std::string, Family> &Families,
                     std::string *Suffix) {
  static const char *Suffixes[] = {"_bucket", "_sum", "_count"};
  for (const char *S : Suffixes) {
    std::string Suf(S);
    if (Name.size() > Suf.size() &&
        Name.compare(Name.size() - Suf.size(), Suf.size(), Suf) == 0) {
      std::string Base = Name.substr(0, Name.size() - Suf.size());
      auto It = Families.find(Base);
      if (It != Families.end() && It->second.Type == "histogram") {
        *Suffix = Suf;
        return Base;
      }
    }
  }
  *Suffix = "";
  return Name;
}

bool checkHistogramFamily(const std::string &Name, const Family &F,
                          std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = strFormat("histogram %s: %s", Name.c_str(), Why.c_str());
    return false;
  };
  if (!F.SawSum)
    return Fail("missing _sum sample");
  if (!F.SawCount)
    return Fail("missing _count sample");
  if (F.Buckets.empty())
    return Fail("no _bucket samples");
  if (!std::isfinite(F.Sum))
    return Fail("_sum is not finite");

  double PreviousBound = -std::numeric_limits<double>::infinity();
  double PreviousCount = -1.0;
  bool SawInf = false;
  for (const Sample &B : F.Buckets) {
    if (SawInf)
      return Fail("+Inf bucket is not last");
    std::string Why;
    double Bound = 0.0;
    if (!parseLeBound(B.Labels, &Bound, &Why))
      return Fail(Why);
    if (std::isinf(Bound))
      SawInf = true;
    else if (Bound <= PreviousBound)
      return Fail(strFormat("le bounds not strictly increasing at le=%g",
                            Bound));
    PreviousBound = std::isinf(Bound) ? PreviousBound : Bound;
    if (B.Value < 0.0)
      return Fail("negative bucket count");
    if (B.Value < PreviousCount)
      return Fail("bucket counts are not cumulative");
    PreviousCount = B.Value;
  }
  if (!SawInf)
    return Fail("missing +Inf bucket");
  if (F.Buckets.back().Value != F.Count)
    return Fail(strFormat("+Inf bucket (%g) != _count (%g)",
                          F.Buckets.back().Value, F.Count));
  return true;
}

} // namespace

bool ltp::obs::checkMetricsText(const std::string &Text, std::string *Summary,
                                std::string *Error) {
  std::map<std::string, Family> Families;
  std::vector<std::string> Order;
  size_t SampleCount = 0;
  size_t LineNo = 0;

  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      // Only TYPE comments are structural; HELP and free comments pass.
      std::istringstream Comment(Line);
      std::string Hash, Keyword, Name, Type;
      Comment >> Hash >> Keyword;
      if (Keyword != "TYPE")
        continue;
      if (!(Comment >> Name >> Type))
        return fail(Error, LineNo, Line, "malformed TYPE line");
      if (!validMetricName(Name))
        return fail(Error, LineNo, Line, "invalid family name");
      if (Type != "counter" && Type != "gauge" && Type != "histogram")
        return fail(Error, LineNo, Line, "unknown family type " + Type);
      if (Families.count(Name))
        return fail(Error, LineNo, Line, "duplicate TYPE for " + Name);
      Families[Name].Type = Type;
      Order.push_back(Name);
      continue;
    }

    Sample S;
    std::string Why;
    if (!parseSample(Line, &S, &Why))
      return fail(Error, LineNo, Line, Why);
    S.LineNo = LineNo;
    ++SampleCount;

    std::string Suffix;
    std::string FamilyName = familyOf(S.Name, Families, &Suffix);
    auto It = Families.find(FamilyName);
    if (It == Families.end())
      return fail(Error, LineNo, Line,
                  "sample without preceding TYPE declaration");
    Family &F = It->second;
    ++F.Samples;
    if (F.Type == "histogram") {
      if (Suffix == "_bucket") {
        F.Buckets.push_back(S);
      } else if (Suffix == "_sum") {
        if (F.SawSum)
          return fail(Error, LineNo, Line, "duplicate _sum");
        F.SawSum = true;
        F.Sum = S.Value;
      } else if (Suffix == "_count") {
        if (F.SawCount)
          return fail(Error, LineNo, Line, "duplicate _count");
        F.SawCount = true;
        F.Count = S.Value;
      } else {
        return fail(Error, LineNo, Line,
                    "histogram sample without _bucket/_sum/_count suffix");
      }
    } else {
      if (F.Type == "counter" && S.Value < 0.0)
        return fail(Error, LineNo, Line, "negative counter value");
      if (F.Samples > 1)
        return fail(Error, LineNo, Line, "duplicate sample for " + S.Name);
    }
  }

  size_t Counters = 0;
  size_t Gauges = 0;
  size_t Histograms = 0;
  for (const auto &[Name, F] : Families) {
    if (F.Type == "histogram") {
      ++Histograms;
      if (!checkHistogramFamily(Name, F, Error))
        return false;
    } else if (F.Type == "counter") {
      ++Counters;
    } else {
      ++Gauges;
    }
    if (F.Samples == 0) {
      if (Error)
        *Error = strFormat("family %s declared but has no samples",
                           Name.c_str());
      return false;
    }
  }

  if (Summary)
    *Summary = strFormat("%zu families (%zu counters, %zu gauges, "
                         "%zu histograms), %zu samples",
                         Families.size(), Counters, Gauges, Histograms,
                         SampleCount);
  return true;
}

std::vector<std::string> ltp::obs::metricFamilyNames(const std::string &Text) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Comment(Line);
    std::string Hash, Keyword, Name;
    Comment >> Hash >> Keyword;
    if (Hash == "#" && Keyword == "TYPE" && (Comment >> Name))
      Out.push_back(Name);
  }
  return Out;
}
