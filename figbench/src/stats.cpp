#include "stats.h"

#include <algorithm>

namespace figbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailWithBeyond(std::vector<double> v, size_t minBeyond)
{
    // Percentiles in tenths, so the nearest rank is exact integer math.
    static const size_t kLadder[] = {999, 990, 950, 900, 750, 500};
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    for (size_t p : kLadder) {
        // Nearest-rank percentile: the sample at 1-based rank r.
        size_t r = std::max<size_t>((p * n + 999) / 1000, 1);
        if (n - r >= minBeyond) {
            t.found = true;
            t.percentile = static_cast<double>(p) / 10.0;
            t.value = v[r - 1];
            t.beyond = n - r;
            return t;
        }
    }
    return t;
}

} // namespace figbench
