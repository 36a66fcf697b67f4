#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tcsim {

double
Histogram::min() const
{
    TCSIM_CHECK(!samples_.empty());
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Histogram::max() const
{
    TCSIM_CHECK(!samples_.empty());
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Histogram::mean() const
{
    TCSIM_CHECK(!samples_.empty());
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

double
Histogram::median() const
{
    return percentile(50.0);
}

double
Histogram::percentile(double p) const
{
    TCSIM_CHECK(!samples_.empty());
    TCSIM_CHECK(p >= 0.0 && p <= 100.0);
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
Histogram::stddev() const
{
    TCSIM_CHECK(!samples_.empty());
    double m = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - m) * (s - m);
    return std::sqrt(acc / static_cast<double>(samples_.size()));
}

namespace stats {

double
mean(const std::vector<double>& v)
{
    TCSIM_CHECK(!v.empty());
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

double
median(std::vector<double> v)
{
    TCSIM_CHECK(!v.empty());
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n % 2 == 1)
        return v[n / 2];
    return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
pearson(const std::vector<double>& x, const std::vector<double>& y)
{
    TCSIM_CHECK(x.size() == y.size());
    TCSIM_CHECK(x.size() >= 2);
    double mx = mean(x);
    double my = mean(y);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        double dx = x[i] - mx;
        double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
mean_abs_rel_error_pct(const std::vector<double>& ref,
                       const std::vector<double>& measured)
{
    TCSIM_CHECK(ref.size() == measured.size());
    TCSIM_CHECK(!ref.empty());
    double acc = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        TCSIM_CHECK(ref[i] != 0.0);
        acc += std::abs(measured[i] - ref[i]) / std::abs(ref[i]);
    }
    return 100.0 * acc / static_cast<double>(ref.size());
}

double
rel_stddev_pct(const std::vector<double>& ref,
               const std::vector<double>& measured)
{
    TCSIM_CHECK(ref.size() == measured.size());
    TCSIM_CHECK(!ref.empty());
    std::vector<double> rel;
    rel.reserve(ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        TCSIM_CHECK(ref[i] != 0.0);
        rel.push_back((measured[i] - ref[i]) / ref[i]);
    }
    double m = mean(rel);
    double acc = 0.0;
    for (double r : rel)
        acc += (r - m) * (r - m);
    return 100.0 * std::sqrt(acc / static_cast<double>(rel.size()));
}

}  // namespace stats

}  // namespace tcsim
