#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "common/random.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double MeanOfGroupMedians(const std::vector<double>& values,
                          const std::vector<int>& groups) {
  std::map<int, std::vector<double>> by_group;
  for (size_t i = 0; i < values.size() && i < groups.size(); ++i) {
    by_group[groups[i]].push_back(values[i]);
  }
  if (by_group.empty()) return 0.0;
  double sum = 0.0;
  for (auto& [group, group_values] : by_group) {
    sum += Median(std::move(group_values));
  }
  return sum / static_cast<double>(by_group.size());
}

TailStat Tail(std::vector<double> values, int64_t min_beyond) {
  TailStat tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const int64_t n = tail.samples;
  // 1-based rank k has n - k samples beyond it; the highest rank with
  // min_beyond of them is n - min_beyond.
  const int64_t rank = n - min_beyond;
  if (rank < (n + 1) / 2) {
    tail.value = Quantile(values, 0.5);
    tail.percentile = 50.0;
    tail.beyond = n / 2;
    return tail;
  }
  tail.value = values[static_cast<size_t>(rank - 1)];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = n - rank;
  return tail;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double start = spans[i].start;
    const double end = spans[i].end;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double cursor = start;
    for (const auto& [kid_start, kid_end] : kids) {
      const double lo = std::max(kid_start, cursor);
      const double hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = std::max(0.0, (end - start) - covered);
  }
  return self;
}

std::vector<int> RequestOrder(uint64_t seed, int n) {
  std::vector<int> order(std::max(n, 0));
  std::iota(order.begin(), order.end(), 0);
  uint64_t state = seed;
  for (int i = n - 1; i > 0; --i) {
    state = matopt::SplitMix64(state);
    const int j = static_cast<int>(state % static_cast<uint64_t>(i + 1));
    std::swap(order[i], order[j]);
  }
  return order;
}

}  // namespace perfbench
