#include "dbscan.hh"

#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "obs/metrics.hh"
#include "support/strings.hh"

namespace fits::ml {

std::vector<std::size_t>
DbscanResult::members(int cluster) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == cluster)
            out.push_back(i);
    }
    return out;
}

std::vector<std::vector<std::size_t>>
DbscanResult::allMembers() const
{
    // One pass over the labels instead of one members() scan per
    // cluster (O(n) vs O(n * k)).
    std::vector<std::vector<std::size_t>> out(
        static_cast<std::size_t>(numClusters));
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] >= 0)
            out[static_cast<std::size_t>(labels[i])].push_back(i);
    }
    return out;
}

std::size_t
DbscanResult::noiseCount() const
{
    std::size_t n = 0;
    for (int label : labels) {
        if (label == -1)
            ++n;
    }
    return n;
}

namespace {

/**
 * The rows DBSCAN actually scans: one entry per group of duplicate
 * rows, in first-occurrence order, weighted by the group's size.
 *
 * Rows merge only when their bits are identical (so every per-pair
 * distance to them is bit-identical too) and the row is its own
 * eps-neighbour. The second condition keeps the brute-force semantics
 * for rows that are not: an all-zero row under Cosine or Pearson has
 * self-distance 1 and a NaN row compares false, so in the brute-force
 * scan such duplicates are not each other's neighbours and may end up
 * in different clusters. They stay separate weight-1 entries.
 */
struct WeightedRows
{
    std::vector<std::size_t> rowOf;   ///< entry -> first row index
    std::vector<std::size_t> weight;  ///< entry -> duplicate count
    std::vector<std::size_t> entryOf; ///< row -> entry

    WeightedRows(const Matrix &points, const DbscanConfig &config)
    {
        entryOf.reserve(points.size());
        // Hash -> entry of the first self-neighbour row with that
        // hash. A collision between different rows just leaves the
        // later row unmerged, which is always exact.
        std::unordered_map<std::uint64_t, std::size_t> byHash;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Vec &row = points[i];
            const std::size_t bytes = row.size() * sizeof(double);
            const std::uint64_t hash = support::fnv1a(
                reinterpret_cast<const std::uint8_t *>(row.data()),
                bytes);
            if (const auto it = byHash.find(hash); it != byHash.end()) {
                const Vec &first = points[rowOf[it->second]];
                if (first.size() == row.size() &&
                    (bytes == 0 ||
                     std::memcmp(first.data(), row.data(), bytes) ==
                         0)) {
                    ++weight[it->second];
                    entryOf.push_back(it->second);
                    continue;
                }
            } else if (distance(config.metric, row, row) <=
                       config.eps) {
                byHash.emplace(hash, rowOf.size());
            }
            entryOf.push_back(rowOf.size());
            rowOf.push_back(i);
            weight.push_back(1);
        }
    }

    std::size_t size() const { return rowOf.size(); }

    /** Total weight of a set of entries. */
    std::size_t
    weightOf(const std::vector<std::size_t> &entries) const
    {
        std::size_t total = 0;
        for (std::size_t e : entries)
            total += weight[e];
        return total;
    }
};

/**
 * Pairwise-distance scanner over a flattened copy of the distinct
 * rows.
 *
 * DBSCAN's cost is regionQuery: one scan of all entries per query.
 * The generic path pays a `distance()` dispatch, two `Vec`
 * indirections, and (for cosine/Pearson) redundant per-row norm/mean
 * recomputation on every pair. This scanner flattens the entries'
 * rows into one contiguous buffer, hoists the metric dispatch out of
 * the scan, and precomputes the per-row invariants (norms for cosine,
 * means for Pearson) once.
 *
 * Every per-pair formula below keeps the exact operation order of
 * distance.cc — same accumulation sequence, same zero checks, same
 * final sqrt/divide — and the precomputed invariants are obtained by
 * calling the very same norm()/mean computation those formulas use, so
 * clustering output is bit-identical to the generic path.
 */
class DistanceScanner
{
  public:
    DistanceScanner(const Matrix &points, const WeightedRows &rows,
                    const DbscanConfig &config)
        : points_(points), rows_(rows), config_(config),
          n_(rows.size())
    {
        dim_ = n_ > 0 ? points[rows.rowOf[0]].size() : 0;
        flat_ = true;
        for (std::size_t e = 0; e < n_; ++e) {
            if (row(e).size() != dim_) {
                flat_ = false; // ragged input: generic path only
                break;
            }
        }
        if (flat_) {
            buffer_.reserve(n_ * dim_);
            for (std::size_t e = 0; e < n_; ++e)
                buffer_.insert(buffer_.end(), row(e).begin(),
                               row(e).end());
            if (config.metric == Metric::Cosine) {
                norms_.reserve(n_);
                for (std::size_t e = 0; e < n_; ++e)
                    norms_.push_back(norm(row(e)));
            } else if (config.metric == Metric::Pearson) {
                means_.reserve(n_);
                for (std::size_t e = 0; e < n_; ++e) {
                    double mean = 0.0;
                    for (double v : row(e))
                        mean += v;
                    means_.push_back(
                        dim_ > 0 ? mean / static_cast<double>(dim_)
                                 : 0.0);
                }
            }
        }
    }

    /** Every entry within eps of entry `p` (including p itself when
     * it is its own neighbour), into `out`. The buffer is
     * caller-owned so one allocation serves every query. */
    void
    neighbors(std::size_t p, std::vector<std::size_t> &out) const
    {
        out.clear();
        if (!flat_) {
            for (std::size_t q = 0; q < n_; ++q) {
                if (distance(config_.metric, row(p), row(q)) <=
                    config_.eps)
                    out.push_back(q);
            }
            return;
        }
        switch (config_.metric) {
          case Metric::Euclidean: scan<Metric::Euclidean>(p, out); break;
          case Metric::Manhattan: scan<Metric::Manhattan>(p, out); break;
          case Metric::Cosine:    scan<Metric::Cosine>(p, out); break;
          case Metric::Pearson:   scan<Metric::Pearson>(p, out); break;
        }
    }

  private:
    const Vec &
    row(std::size_t e) const
    {
        return points_[rows_.rowOf[e]];
    }

    template <Metric M>
    void
    scan(std::size_t p, std::vector<std::size_t> &out) const
    {
        const double *a = buffer_.data() + p * dim_;
        const double *b = buffer_.data();
        for (std::size_t q = 0; q < n_; ++q, b += dim_) {
            double d = 0.0;
            if constexpr (M == Metric::Euclidean) {
                double s = 0.0;
                for (std::size_t i = 0; i < dim_; ++i) {
                    const double diff = a[i] - b[i];
                    s += diff * diff;
                }
                d = std::sqrt(s);
            } else if constexpr (M == Metric::Manhattan) {
                double s = 0.0;
                for (std::size_t i = 0; i < dim_; ++i)
                    s += std::fabs(a[i] - b[i]);
                d = s;
            } else if constexpr (M == Metric::Cosine) {
                const double na = norms_[p];
                const double nb = norms_[q];
                double sim = 0.0;
                if (na != 0.0 && nb != 0.0) {
                    double s = 0.0;
                    for (std::size_t i = 0; i < dim_; ++i)
                        s += a[i] * b[i];
                    sim = s / (na * nb);
                }
                d = 1.0 - sim;
            } else { // Pearson
                double corr = 0.0;
                if (dim_ > 0) {
                    const double meanA = means_[p];
                    const double meanB = means_[q];
                    double cov = 0.0, varA = 0.0, varB = 0.0;
                    for (std::size_t i = 0; i < dim_; ++i) {
                        const double da = a[i] - meanA;
                        const double db = b[i] - meanB;
                        cov += da * db;
                        varA += da * da;
                        varB += db * db;
                    }
                    if (varA != 0.0 && varB != 0.0)
                        corr = cov / std::sqrt(varA * varB);
                }
                d = 1.0 - corr;
            }
            if (d <= config_.eps)
                out.push_back(q);
        }
    }

    const Matrix &points_;
    const WeightedRows &rows_;
    const DbscanConfig &config_;
    std::size_t n_;
    std::size_t dim_ = 0;
    bool flat_ = false;
    std::vector<double> buffer_; ///< row-major n_ x dim_
    std::vector<double> norms_;  ///< per-entry L2 norms (cosine)
    std::vector<double> means_;  ///< per-entry means (Pearson)
};

} // namespace

DbscanResult
dbscan(const Matrix &points, const DbscanConfig &config)
{
    constexpr int kUnvisited = -2;
    constexpr int kNoise = -1;

    // Duplicates of a self-neighbour row share its neighbourhood, so
    // they are all core or all not, and always end up with one label:
    // clustering the weighted distinct rows and copying each entry's
    // label to its duplicates gives the brute-force labels exactly.
    const WeightedRows rows(points, config);
    const DistanceScanner scanner(points, rows, config);
    std::vector<int> labels(rows.size(), kUnvisited);
    std::vector<std::size_t> neighbors;
    std::vector<std::size_t> qNeighbors;

    int cluster = 0;
    for (std::size_t p = 0; p < rows.size(); ++p) {
        if (labels[p] != kUnvisited)
            continue;

        scanner.neighbors(p, neighbors);
        if (rows.weightOf(neighbors) < config.minPts) {
            labels[p] = kNoise;
            continue;
        }

        labels[p] = cluster;
        std::deque<std::size_t> seeds(neighbors.begin(),
                                      neighbors.end());
        while (!seeds.empty()) {
            const std::size_t q = seeds.front();
            seeds.pop_front();
            if (labels[q] == kNoise)
                labels[q] = cluster; // border point
            if (labels[q] != kUnvisited)
                continue;
            labels[q] = cluster;
            scanner.neighbors(q, qNeighbors);
            if (rows.weightOf(qNeighbors) >= config.minPts) {
                // Only unvisited and noise points can still change
                // label; re-enqueueing cluster-assigned neighbors is a
                // no-op on pop but grows the deque O(n^2) on dense
                // blobs, so skip them at push time.
                for (std::size_t r : qNeighbors) {
                    if (labels[r] < 0)
                        seeds.push_back(r);
                }
            }
        }
        ++cluster;
    }

    DbscanResult result;
    result.labels.reserve(points.size());
    for (std::size_t entry : rows.entryOf)
        result.labels.push_back(labels[entry]);
    result.numClusters = cluster;

    // Every entry is region-queried exactly once (on first visit), so
    // the scan evaluated rows.size()^2 distances.
    obs::addCounter("kernel.cluster.rows", points.size());
    obs::addCounter("kernel.cluster.distinct_rows", rows.size());
    obs::addCounter("kernel.cluster.distance_evals",
                    rows.size() * rows.size());
    return result;
}

} // namespace fits::ml
