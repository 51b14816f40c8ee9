// Small numeric helpers: percentiles and this process's memory.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (q in [0, 1]) of `values`; 0 for an empty input.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Resident set size of this process in bytes, after returning freed heap
// pages to the system so that earlier set-ups do not inflate the reading.
size_t TrimmedRssBytes();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
