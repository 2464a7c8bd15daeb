#ifndef FITS_MLKIT_STATS_HH_
#define FITS_MLKIT_STATS_HH_

#include <vector>

namespace fits::ml {

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &xs);

/** Population standard deviation. */
double stddev(const std::vector<double> &xs);

/** Pearson correlation between two equal-length series (used to check
 * the Figure-4 time-vs-size claim); 0 for degenerate input. */
double correlation(const std::vector<double> &xs,
                   const std::vector<double> &ys);

} // namespace fits::ml

#endif // FITS_MLKIT_STATS_HH_
