/** @file Property tests of ml::dbscan against the brute-force oracle:
 * seeded random matrices with planted duplicates under every metric,
 * hostile rows (all-zero, NaN, signed zeros) that must not be merged
 * wrongly, the kernel's work counters, and every sample's clustering
 * matrix on the standard corpus. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "dbscan_oracle.hh"
#include "mlkit/dbscan.hh"
#include "mlkit/vector.hh"
#include "obs/metrics.hh"
#include "support/rng.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

using oracle::referenceDbscan;

constexpr ml::Metric kMetrics[] = {ml::Metric::Euclidean,
                                   ml::Metric::Manhattan,
                                   ml::Metric::Cosine,
                                   ml::Metric::Pearson};
constexpr std::size_t kMinPts[] = {0, 1, 3, 5};

/** Asserts ml::dbscan reproduces the oracle on `points` under every
 * metric, every kMinPts value and each eps in `epsValues`. */
void
expectMatchesOracle(const ml::Matrix &points,
                    const std::vector<double> &epsValues)
{
    for (const ml::Metric metric : kMetrics) {
        for (const std::size_t minPts : kMinPts) {
            for (const double eps : epsValues) {
                const ml::DbscanConfig config{eps, minPts, metric};
                SCOPED_TRACE(std::string(ml::metricName(metric)) +
                             " minPts=" + std::to_string(minPts) +
                             " eps=" + std::to_string(eps));
                const auto got = ml::dbscan(points, config);
                const auto want = referenceDbscan(points, config);
                ASSERT_EQ(got.labels, want.labels);
                ASSERT_EQ(got.numClusters, want.numClusters);
            }
        }
    }
}

/**
 * `n` rows drawn from `distinct` base rows, each base row appearing at
 * least once, in shuffled order. Base rows sit on a coarse grid around
 * a few centres (like max-abs-scaled count features), so both dense
 * clusters and noise occur at the swept eps values.
 */
ml::Matrix
plantedMatrix(support::Rng &rng, std::size_t n, std::size_t distinct,
              std::size_t dim)
{
    ml::Matrix base;
    const std::size_t centres = 1 + rng.index(4);
    for (std::size_t i = 0; i < distinct; ++i) {
        const double centre =
            static_cast<double>(i % centres) / static_cast<double>(centres);
        ml::Vec row(dim);
        for (auto &v : row)
            v = centre + std::round(rng.uniformReal(-2.0, 2.0)) / 8.0;
        base.push_back(std::move(row));
    }
    ml::Matrix points = base;
    while (points.size() < n)
        points.push_back(base[rng.index(base.size())]);
    rng.shuffle(points);
    return points;
}

TEST(DbscanOracle, RandomMatricesWithPlantedDuplicates)
{
    // Distinct-row fractions from all-distinct (0% duplicated) to
    // corpus-like (97% duplicated).
    constexpr double kDistinctFrac[] = {1.0, 0.6, 0.25, 0.03};
    support::Rng rng(0xdb5c4);
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t n = 40 + rng.index(80);
        const double frac = kDistinctFrac[trial % 4];
        const std::size_t distinct = std::max<std::size_t>(
            1, static_cast<std::size_t>(frac * static_cast<double>(n)));
        const std::size_t dim = 1 + rng.index(6);
        SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" +
                     std::to_string(n) +
                     " distinct=" + std::to_string(distinct) +
                     " dim=" + std::to_string(dim));
        const ml::Matrix points = plantedMatrix(rng, n, distinct, dim);
        expectMatchesOracle(points, {0.0, 0.05, 0.2, 0.6});
    }
}

TEST(DbscanOracle, HostileRows)
{
    // Rows whose duplicates must NOT be merged (all-zero rows under
    // Cosine/Pearson have self-distance 1; NaN rows are nobody's
    // neighbour, themselves included), rows that differ only in the
    // sign of a zero (equal values, different bits), and an infinite
    // row, mixed with ordinary duplicated rows.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const ml::Matrix kinds = {
        {0.0, 0.0, 0.0},  {-0.0, 0.0, -0.0}, {nan, nan, nan},
        {0.5, nan, 0.5},  {0.5, 0.0, 0.5},   {0.5, -0.0, 0.5},
        {1.0, 1.0, 1.0},  {1.0, 1.0, 1.01},  {inf, 0.0, 1.0},
        {0.2, 0.4, 0.6},  {-0.2, 0.4, 0.6},
    };
    support::Rng rng(0xba5e);
    for (int trial = 0; trial < 12; ++trial) {
        ml::Matrix points;
        const std::size_t n = 8 + rng.index(40);
        for (std::size_t i = 0; i < n; ++i)
            points.push_back(kinds[rng.index(kinds.size())]);
        SCOPED_TRACE("trial " + std::to_string(trial));
        // eps = 1 admits the all-zero rows' self-distance under
        // Cosine/Pearson; eps < 0 rejects every pair; NaN eps too.
        expectMatchesOracle(points,
                            {-0.5, 0.0, 0.02, 0.5, 1.0, 1.5, nan});
    }
}

TEST(DbscanOracle, CountsDistinctRowsAndDistanceEvals)
{
    obs::Registry::instance().reset();
    obs::setEnabled(true);
    // 3 distinct self-neighbour rows, each duplicated, plus two NaN
    // rows that stay separate entries: 5 entries for 9 rows.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const ml::Matrix points = {{0, 0}, {1, 1}, {0, 0}, {nan, 0},
                               {2, 2}, {1, 1}, {nan, 0}, {0, 0},
                               {2, 2}};
    const auto clusters =
        ml::dbscan(points, {0.5, 2, ml::Metric::Euclidean});
    obs::setEnabled(false);
    const auto counters = obs::Registry::instance().snapshot().counters;
    obs::Registry::instance().reset();

    EXPECT_EQ(clusters.numClusters, 3);
    EXPECT_EQ(counters.at("kernel.cluster.rows"), 9u);
    EXPECT_EQ(counters.at("kernel.cluster.distinct_rows"), 5u);
    EXPECT_EQ(counters.at("kernel.cluster.distance_evals"), 25u);
}

TEST(DbscanCorpus, EverySampleMatchesOracle)
{
    // The matrix inferIts clusters: each custom function's BFV,
    // max-abs scaled per column.
    const core::FitsPipeline pipeline;
    const ml::DbscanConfig config = pipeline.config().infer.dbscan;
    int compared = 0;
    for (const auto &spec : synth::standardDataset()) {
        const auto fw = synth::generateFirmware(spec);
        const auto result = pipeline.run(fw.bytes);
        if (!result.ok)
            continue;
        const core::BehaviorRepr &repr = result.behavior;
        ml::Matrix points;
        for (const analysis::FnId id : repr.customFns)
            points.push_back(repr.records[id].bfv.toVector());
        const ml::Vec factors = ml::columnAbsMax(points);
        for (auto &row : points) {
            for (std::size_t c = 0; c < row.size(); ++c) {
                if (factors[c] != 0.0)
                    row[c] /= factors[c];
            }
        }
        SCOPED_TRACE(spec.product + " seed " + std::to_string(spec.seed));
        const auto got = ml::dbscan(points, config);
        const auto want = referenceDbscan(points, config);
        ASSERT_EQ(got.labels, want.labels);
        ASSERT_EQ(got.numClusters, want.numClusters);
        EXPECT_EQ(result.inference.numClusters,
                  static_cast<std::size_t>(want.numClusters));
        ++compared;
    }
    EXPECT_GE(compared, 50);
}

} // namespace
} // namespace fits
