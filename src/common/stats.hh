/**
 * @file
 * Statistics helpers used by the evaluation harness: moments, quantiles,
 * Pearson correlation, a least-squares slope, and the five-number
 * summaries behind the paper's violin plots.
 */

#ifndef PACT_COMMON_STATS_HH
#define PACT_COMMON_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace pact
{

namespace stats
{

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/** Population standard deviation; 0 for fewer than two samples. */
double stddev(const std::vector<double> &xs);

/**
 * Quantile via linear interpolation on the sorted copy of xs.
 * @param q Quantile in [0, 1].
 */
double quantile(std::vector<double> xs, double q);

/** Quantile assuming xs is already sorted ascending. */
double quantileSorted(const std::vector<double> &xs, double q);

/** Pearson correlation coefficient; 0 when either side is constant. */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Slope of the least-squares fit y = k*x through the origin.
 * Returns 0 when sum(x^2) is 0.
 */
double fitSlopeThroughOrigin(const std::vector<double> &xs,
                             const std::vector<double> &ys);

/**
 * Five-number summary (min, Q1, median, Q3, max) — the statistics a
 * violin plot's overlay lines report in the paper's Figure 1.
 */
struct FiveNum
{
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    std::size_t count = 0;
};

/** Compute the five-number summary of xs. */
FiveNum fiveNumber(std::vector<double> xs);

} // namespace stats

} // namespace pact

#endif // PACT_COMMON_STATS_HH
