#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pact
{

namespace stats
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs.size()));
}

double
quantileSorted(const std::vector<double> &xs, double q)
{
    if (xs.empty())
        return 0.0;
    if (q <= 0.0)
        return xs.front();
    if (q >= 1.0)
        return xs.back();
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= xs.size())
        return xs.back();
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

double
quantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    return quantileSorted(xs, q);
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    panic_if(xs.size() != ys.size(), "pearson: size mismatch");
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; i++) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
fitSlopeThroughOrigin(const std::vector<double> &xs,
                      const std::vector<double> &ys)
{
    panic_if(xs.size() != ys.size(), "fit: size mismatch");
    double sxy = 0.0, sxx = 0.0;
    for (std::size_t i = 0; i < xs.size(); i++) {
        sxy += xs[i] * ys[i];
        sxx += xs[i] * xs[i];
    }
    return sxx == 0.0 ? 0.0 : sxy / sxx;
}

FiveNum
fiveNumber(std::vector<double> xs)
{
    FiveNum f;
    if (xs.empty())
        return f;
    std::sort(xs.begin(), xs.end());
    f.min = xs.front();
    f.q1 = quantileSorted(xs, 0.25);
    f.median = quantileSorted(xs, 0.50);
    f.q3 = quantileSorted(xs, 0.75);
    f.max = xs.back();
    f.count = xs.size();
    return f;
}

} // namespace stats

} // namespace pact
