// Order statistics and span arithmetic of the benchmark: the percentile
// rules behind request_p50_s / request_tail_s, self time of trace spans,
// and the seeded request order.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of `values`, linearly interpolated between the
/// closest ranks (numpy's default). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// The set-up statistic: the median of each group's values, averaged over
/// the groups. Set-ups are grouped by the CPU they were pinned to, so a
/// core that is slower than the others weighs the same in every run
/// instead of deciding the median when a single-threaded set-up happens to
/// land on it. With one group it is Median(values). `groups` holds one
/// entry per value.
double MeanOfGroupMedians(const std::vector<double>& values,
                          const std::vector<int>& groups);

/// The tail statistic of the benchmark: the sample at the highest
/// percentile that still has `min_beyond` samples beyond it, i.e. the
/// (n - min_beyond)-th smallest of n. It never goes below the median:
/// when fewer than 2 * min_beyond samples exist the median is reported and
/// `beyond` records how many samples actually lie past it.
struct TailStat {
  double value = 0.0;
  double percentile = 0.0;  // 0..100, the rank the value was taken at
  int64_t beyond = 0;       // samples strictly after that rank
  int64_t samples = 0;
};
TailStat Tail(std::vector<double> values, int64_t min_beyond = 10);

/// One recorded span: a named interval on the benchmark's clock. Spans of
/// one request share `request`; `parent` is the index of the enclosing
/// span in the same trace, -1 for a request's root.
struct Span {
  std::string name;
  int64_t request = 0;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Fisher-Yates permutation of [0, n) drawn from SplitMix64(seed): the
/// order one round of a workload sends its programs in.
std::vector<int> RequestOrder(uint64_t seed, int n);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
