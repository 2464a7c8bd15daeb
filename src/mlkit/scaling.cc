#include "scaling.hh"

#include <algorithm>

namespace fits::ml {

Matrix
standardize(const Matrix &m)
{
    const Vec mean = columnMean(m);
    const Vec stddev = columnStddev(m, mean);
    Matrix out = m;
    for (auto &row : out) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            row[c] = stddev[c] != 0.0
                         ? (row[c] - mean[c]) / stddev[c]
                         : 0.0;
        }
    }
    return out;
}

Matrix
minMaxScale(const Matrix &m)
{
    const std::size_t cols = columns(m);
    Vec lo(cols, 0.0), hi(cols, 0.0);
    if (!m.empty()) {
        lo = m.front();
        hi = m.front();
        for (const auto &row : m) {
            for (std::size_t c = 0; c < cols; ++c) {
                lo[c] = std::min(lo[c], row[c]);
                hi[c] = std::max(hi[c], row[c]);
            }
        }
    }
    Matrix out = m;
    for (auto &row : out) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double span = hi[c] - lo[c];
            row[c] = span != 0.0 ? (row[c] - lo[c]) / span : 0.0;
        }
    }
    return out;
}

} // namespace fits::ml
