/**
 * @file
 * Order statistics for the figure-regeneration benchmark: the median
 * every timed metric reports, and the tail rule — a percentile is only
 * reported when at least ten samples lie beyond it, so a "p99" over
 * fewer than a thousand rounds (really the maximum) is never printed.
 */
#ifndef FIGBENCH_STATS_H
#define FIGBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace figbench {

/** Median of the samples (mean of the middle two for even counts);
 *  0 for an empty vector. */
double median(std::vector<double> v);

/** A tail percentile with the sample count that supports it. */
struct Tail {
    bool found = false;     ///< false: too few samples for any rung
    double percentile = 0;  ///< e.g. 95 for p95
    double value = 0;
    size_t samples = 0;     ///< total samples
    size_t beyond = 0;      ///< samples strictly after the rank
};

/**
 * The highest percentile of the ladder p99.9, p99, p95, p90, p75, p50
 * whose nearest rank (ceil(p/100 * n)) leaves at least `minBeyond`
 * samples after it. With fewer than 2 * minBeyond samples no rung
 * qualifies and the result is not found.
 */
Tail tailWithBeyond(std::vector<double> v, size_t minBeyond = 10);

} // namespace figbench

#endif
