#pragma once
/**
 * @file
 * Simulation statistics: histograms and the summary math
 * the evaluation harness needs (mean/median/percentiles, Pearson
 * correlation, normalized deviation).
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tcsim {

/**
 * A sample accumulator retaining all observations.
 *
 * The paper's evaluation plots latency distributions (Fig 15) and
 * median-vs-size series (Fig 16); retaining samples keeps percentile
 * queries exact at the scales we simulate.
 */
class Histogram
{
  public:
    Histogram() = default;
    explicit Histogram(std::string name) : name_(std::move(name)) {}

    void add(double sample) { samples_.push_back(sample); }
    /** Append every sample of @p other (in its recorded order). */
    void merge(const Histogram& other)
    {
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
    }
    size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double min() const;
    double max() const;
    double mean() const;
    double median() const;
    /** p in [0,100]; linear interpolation between ranks. */
    double percentile(double p) const;
    double stddev() const;

    const std::vector<double>& samples() const { return samples_; }
    const std::string& name() const { return name_; }
    void reset() { samples_.clear(); }

    /** Snapshot walk (sim/snapshot_io.h): the samples in recorded
     *  order.  The name is not archived. */
    template <class Ar, class Self>
    static void transfer(Ar& ar, Self& self)
    {
        ar.seq(self.samples_, [&](auto& v) { ar.io(v); });
    }

  private:
    std::string name_;
    std::vector<double> samples_;
};

namespace stats {

/** Pearson correlation coefficient of two equal-length series. */
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/**
 * Mean absolute relative error of y versus reference x, in percent.
 * The paper reports "standard deviation of less than 5%" for Fig 14a;
 * we report both this and rel_stddev below.
 */
double mean_abs_rel_error_pct(const std::vector<double>& ref,
                              const std::vector<double>& measured);

/** Standard deviation of the per-point relative error, in percent. */
double rel_stddev_pct(const std::vector<double>& ref,
                      const std::vector<double>& measured);

double mean(const std::vector<double>& v);
double median(std::vector<double> v);

}  // namespace stats

}  // namespace tcsim
