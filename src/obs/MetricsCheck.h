//===- MetricsCheck.h - Prometheus exposition validation --------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validation of the Prometheus text exposition the metrics layer writes
/// (renderPrometheusText), in the spirit of JsonCheck: production code
/// only ever *writes* the format; this checker exists so tests and the
/// `ltp-check metrics` CI tool can prove the output is well-formed and
/// the histogram invariants hold — `le` bounds strictly increasing,
/// bucket counts cumulative, `+Inf` equal to `_count`, `_sum`/`_count`
/// present — rather than trusting the writer.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_METRICSCHECK_H
#define LTP_OBS_METRICSCHECK_H

#include <string>
#include <vector>

namespace ltp {
namespace obs {

/// Validates \p Text as Prometheus text exposition format as produced by
/// renderPrometheusText: every sample belongs to a `# TYPE`-declared
/// family, values parse, and every histogram family satisfies the
/// invariants above. Fills \p Summary with family/sample counts on
/// success and \p Error (with the offending line) on failure.
bool checkMetricsText(const std::string &Text, std::string *Summary,
                      std::string *Error);

/// The family names declared by `# TYPE` lines in \p Text, in order of
/// declaration (used by `ltp-check metrics --require-metric`).
std::vector<std::string> metricFamilyNames(const std::string &Text);

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_METRICSCHECK_H
