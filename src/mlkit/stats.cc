#include "stats.hh"

#include <cmath>

namespace fits::ml {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    const double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size()));
}

double
correlation(const std::vector<double> &xs, const std::vector<double> &ys)
{
    if (xs.size() != ys.size() || xs.size() < 2)
        return 0.0;
    const double mx = mean(xs);
    const double my = mean(ys);
    double cov = 0.0, vx = 0.0, vy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if (vx == 0.0 || vy == 0.0)
        return 0.0;
    return cov / std::sqrt(vx * vy);
}

} // namespace fits::ml
