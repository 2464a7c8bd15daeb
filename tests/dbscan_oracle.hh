/** @file The brute-force DBSCAN that ml::dbscan must reproduce
 * exactly, shared by the tests that compare against it. */

#ifndef FITS_TESTS_DBSCAN_ORACLE_HH_
#define FITS_TESTS_DBSCAN_ORACLE_HH_

#include <deque>
#include <vector>

#include "mlkit/dbscan.hh"

namespace fits::oracle {

/**
 * Textbook DBSCAN: every region query scans every row through the
 * generic ml::distance(), and expansion enqueues every neighbor
 * unconditionally. No deduplication, flattening or seed pruning — the
 * reference semantics for labels and cluster numbering.
 */
inline ml::DbscanResult
referenceDbscan(const ml::Matrix &points, const ml::DbscanConfig &config)
{
    constexpr int kUnvisited = -2;
    constexpr int kNoise = -1;
    auto regionQuery = [&](std::size_t p) {
        std::vector<std::size_t> neighbors;
        for (std::size_t q = 0; q < points.size(); ++q) {
            if (ml::distance(config.metric, points[p], points[q]) <=
                config.eps) {
                neighbors.push_back(q);
            }
        }
        return neighbors;
    };

    ml::DbscanResult result;
    result.labels.assign(points.size(), kUnvisited);
    int cluster = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
        if (result.labels[p] != kUnvisited)
            continue;
        auto neighbors = regionQuery(p);
        if (neighbors.size() < config.minPts) {
            result.labels[p] = kNoise;
            continue;
        }
        result.labels[p] = cluster;
        std::deque<std::size_t> seeds(neighbors.begin(),
                                      neighbors.end());
        while (!seeds.empty()) {
            const std::size_t q = seeds.front();
            seeds.pop_front();
            if (result.labels[q] == kNoise)
                result.labels[q] = cluster;
            if (result.labels[q] != kUnvisited)
                continue;
            result.labels[q] = cluster;
            auto qNeighbors = regionQuery(q);
            if (qNeighbors.size() >= config.minPts) {
                for (std::size_t r : qNeighbors)
                    seeds.push_back(r);
            }
        }
        ++cluster;
    }
    result.numClusters = cluster;
    return result;
}

} // namespace fits::oracle

#endif // FITS_TESTS_DBSCAN_ORACLE_HH_
