/**
 * @file
 * Statistics helper tests against hand-computed values.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hh"

using namespace pact;
using namespace pact::stats;

TEST(Stats, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0,
                1e-12);
}

TEST(Stats, QuantileInterpolates)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.75);
}

TEST(Stats, QuantileUnsortedInput)
{
    EXPECT_DOUBLE_EQ(quantile({9.0, 1.0, 5.0}, 0.5), 5.0);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    std::vector<double> inv = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, inv), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero)
{
    EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Stats, PearsonKnownValue)
{
    // r of {1,2,3} vs {1,3,2} = 0.5
    EXPECT_NEAR(pearson({1, 2, 3}, {1, 3, 2}), 0.5, 1e-12);
}

TEST(Stats, FitThroughOrigin)
{
    EXPECT_NEAR(fitSlopeThroughOrigin({1, 2, 3}, {3, 6, 9}), 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(fitSlopeThroughOrigin({0, 0}, {1, 2}), 0.0);
}

TEST(Stats, FiveNumberSummary)
{
    const FiveNum f = fiveNumber({5, 1, 3, 2, 4});
    EXPECT_DOUBLE_EQ(f.min, 1.0);
    EXPECT_DOUBLE_EQ(f.median, 3.0);
    EXPECT_DOUBLE_EQ(f.max, 5.0);
    EXPECT_DOUBLE_EQ(f.q1, 2.0);
    EXPECT_DOUBLE_EQ(f.q3, 4.0);
    EXPECT_EQ(f.count, 5u);
}
