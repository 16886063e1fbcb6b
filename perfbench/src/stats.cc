#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = long(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method='exclusive'): m = len + 1, cut i at
  // position i*m/n, interpolated with exact integer arithmetic.
  const long n = 4, m = ld + 1;
  double cut[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (v[j - 1] * double(n - delta) + v[j] * double(delta)) /
                 double(n);
  }
  q.q1 = cut[0];
  q.q2 = cut[1];
  q.q3 = cut[2];
  return q;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / double(v.size()));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  const size_t idx = rank < 1 ? 0 : size_t(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::uint64_t covered_ns(Interval outer, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::clamp(c.begin, outer.begin, outer.end);
    c.end = std::clamp(c.end, outer.begin, outer.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::uint64_t total = 0;
  std::uint64_t run_begin = 0, run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.begin) continue;
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) total += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) total += run_end - run_begin;
  return total;
}

std::uint64_t self_ns(Interval outer, const std::vector<Interval>& children) {
  const std::uint64_t len = outer.end > outer.begin ? outer.end - outer.begin : 0;
  return len - covered_ns(outer, children);
}

std::vector<std::uint64_t> collective_wait_ns(
    const std::vector<std::vector<Interval>>& calls) {
  std::vector<std::uint64_t> wait(calls.size(), 0);
  if (calls.empty()) return wait;
  size_t common = calls[0].size();
  for (const auto& c : calls) common = std::min(common, c.size());
  for (size_t k = 0; k < common; ++k) {
    std::uint64_t last_entry = 0;
    for (const auto& c : calls) last_entry = std::max(last_entry, c[k].begin);
    for (size_t r = 0; r < calls.size(); ++r) {
      const Interval& own = calls[r][k];
      const std::uint64_t dur = own.end > own.begin ? own.end - own.begin : 0;
      wait[r] += std::min(last_entry - own.begin, dur);
    }
  }
  return wait;
}

}  // namespace perfbench
