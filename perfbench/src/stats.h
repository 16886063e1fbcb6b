// Order statistics and span arithmetic used by the benchmark's reports.
//
// Everything here is pure arithmetic over plain vectors so the unit tests
// can check it on hand-made inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even counts). Empty -> 0.
double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};

/// The three cut points of Python's statistics.quantiles(v, n=4) with its
/// default 'exclusive' method, so the spreads printed here match the ones
/// computed from the JSON results. Empty -> zeros; one value -> that value.
Quartiles quartiles(std::vector<double> v);

/// Geometric mean of strictly positive values. Empty -> 0.
double geomean(const std::vector<double>& v);

/// Nearest-rank percentile (p in [0, 100]): the smallest sample with at
/// least p% of the samples at or below it. Empty -> 0.
double percentile(std::vector<double> v, double p);

/// Half-open time interval [begin, end) in nanoseconds.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Length of the union of `children` clipped to `outer`. Overlapping or
/// nested children are counted once.
std::uint64_t covered_ns(Interval outer, std::vector<Interval> children);

/// Self time of a span: its length minus the part its children cover.
std::uint64_t self_ns(Interval outer, const std::vector<Interval>& children);

/// Collective skew. `calls[r]` holds rank r's collective calls on one
/// communicator in issue order; call k of every rank is the same
/// collective. For call k the last rank to enter sets the start; rank r
/// waited max_r' begin[r'][k] - begin[r][k], capped at its own call's
/// duration (a root may leave a one-to-many collective before the others
/// arrive). Returns each rank's summed wait. Ranks with more calls than
/// the shortest list are matched on the common prefix only.
std::vector<std::uint64_t> collective_wait_ns(
    const std::vector<std::vector<Interval>>& calls);

}  // namespace perfbench
