/**
 * @file
 * Tests for histograms and the correlation/error math used
 * by the evaluation harness.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"

namespace tcsim {
namespace {

TEST(Histogram, BasicMoments)
{
    Histogram h("lat");
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        h.add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_DOUBLE_EQ(h.median(), 3.0);
    EXPECT_NEAR(h.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(Histogram, MedianEvenCount)
{
    Histogram h;
    h.add(1.0);
    h.add(2.0);
    h.add(10.0);
    h.add(20.0);
    EXPECT_DOUBLE_EQ(h.median(), 6.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (int i = 0; i <= 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
}

TEST(Histogram, SingleSample)
{
    Histogram h;
    h.add(42.0);
    EXPECT_DOUBLE_EQ(h.median(), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 42.0);
    EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(StatsMath, PearsonPerfectCorrelation)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(stats::pearson(x, y), 1.0, 1e-12);
    std::vector<double> yn = {-2, -4, -6, -8, -10};
    EXPECT_NEAR(stats::pearson(x, yn), -1.0, 1e-12);
}

TEST(StatsMath, PearsonNoise)
{
    // Near-linear data with small perturbations should stay highly
    // correlated (this is the Fig 14b metric).
    std::vector<double> x, y;
    for (int i = 1; i <= 50; ++i) {
        x.push_back(i);
        y.push_back(2.0 * i + ((i % 3) - 1) * 0.05 * i);
    }
    double r = stats::pearson(x, y);
    EXPECT_GT(r, 0.99);
    EXPECT_LT(r, 1.0);
}

TEST(StatsMath, PearsonConstantSeries)
{
    std::vector<double> x = {1, 1, 1};
    std::vector<double> y = {1, 2, 3};
    EXPECT_DOUBLE_EQ(stats::pearson(x, y), 0.0);
}

TEST(StatsMath, RelativeErrors)
{
    std::vector<double> ref = {100, 200, 400};
    std::vector<double> meas = {110, 190, 400};
    EXPECT_NEAR(stats::mean_abs_rel_error_pct(ref, meas),
                (10.0 + 5.0 + 0.0) / 3.0, 1e-9);
    // rel errors: +0.10, -0.05, 0.0; mean = 0.0166..
    double m = (0.10 - 0.05 + 0.0) / 3.0;
    double var = ((0.10 - m) * (0.10 - m) + (-0.05 - m) * (-0.05 - m) +
                  (0.0 - m) * (0.0 - m)) /
                 3.0;
    EXPECT_NEAR(stats::rel_stddev_pct(ref, meas), 100.0 * std::sqrt(var),
                1e-9);
}

}  // namespace
}  // namespace tcsim
