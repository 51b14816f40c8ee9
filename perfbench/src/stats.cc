#include "stats.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

size_t TrimmedRssBytes() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    std::getline(status, key);
  }
  return 0;
}

}  // namespace perfbench
