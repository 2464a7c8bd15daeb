#ifndef FITS_MLKIT_DBSCAN_HH_
#define FITS_MLKIT_DBSCAN_HH_

#include <cstdint>
#include <vector>

#include "mlkit/distance.hh"

namespace fits::ml {

/** DBSCAN parameters. */
struct DbscanConfig
{
    double eps = 0.5;
    std::size_t minPts = 3;
    Metric metric = Metric::Euclidean;
};

/** Clustering outcome; label -1 marks noise points. */
struct DbscanResult
{
    std::vector<int> labels;
    int numClusters = 0;

    /** Row indices of one cluster. */
    std::vector<std::size_t> members(int cluster) const;

    /** Member lists of all clusters (indexed by label) in one pass;
     * prefer this over calling members() per cluster. */
    std::vector<std::vector<std::size_t>> allMembers() const;

    std::size_t noiseCount() const;
};

/**
 * Density-based spatial clustering (Ester et al.), the algorithm FITS
 * uses for behavior clustering. Region queries are linear scans, run
 * over the distinct rows only: bit-identical rows that are their own
 * eps-neighbours are clustered once, weighted by their duplicate
 * count (a point is core when the weights of its neighbours sum to at
 * least minPts), and the label is copied back to every duplicate.
 * Labels and cluster numbering equal the brute-force O(n^2) scan over
 * all rows. The cost is O(d^2) for d distinct rows: behavior vectors
 * repeat heavily (about 3% are distinct on the standard corpus), and
 * a few thousand rows per binary are too few for an index structure
 * to pay.
 */
DbscanResult dbscan(const Matrix &points, const DbscanConfig &config);

} // namespace fits::ml

#endif // FITS_MLKIT_DBSCAN_HH_
