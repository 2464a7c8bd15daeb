#include "infer.hh"

#include <algorithm>
#include <cmath>

#include "core/semantic.hh"
#include "mlkit/pca.hh"
#include "mlkit/scaling.hh"
#include "obs/metrics.hh"

namespace fits::core {

using analysis::FnId;

const char *
candidateStrategyName(CandidateStrategy strategy)
{
    switch (strategy) {
      case CandidateStrategy::BehaviorClustering:
        return "behavior-clustering";
      case CandidateStrategy::DirectScoring:
        return "direct-scoring";
      case CandidateStrategy::Pca:
        return "pca";
      case CandidateStrategy::Standardize:
        return "standardize";
      case CandidateStrategy::MinMax:
        return "min-max";
    }
    return "?";
}

double
functionComplexity(const Bfv &bfv, const Bfv &maxima)
{
    auto normalized = [](double v, double max) {
        return max > 0.0 ? v / max : 0.0;
    };
    return normalized(bfv.numBlocks, maxima.numBlocks) +
           normalized(bfv.numCallers, maxima.numCallers) +
           normalized(bfv.numLibCalls, maxima.numLibCalls) +
           normalized(bfv.numAnchorCalls, maxima.numAnchorCalls);
}

namespace {

/** Representation choice plus the drop/keep-only feature transform. */
ml::Vec
featureVector(const FunctionRecord &rec, const InferConfig &config)
{
    switch (config.representation) {
      case Representation::AugmentedCfg:
        return rec.augmentedCfg;
      case Representation::AttributedCfg:
        return rec.attributedCfg;
      case Representation::Bfv:
        break;
    }
    if (config.onlyFeature >= 0)
        return rec.bfv.toVectorKeepingOnly(config.onlyFeature);
    if (config.dropFeature >= 0)
        return rec.bfv.toVectorDropping(config.dropFeature);
    return rec.bfv.toVector();
}

/** Per-dimension maxima of the custom functions' raw feature values,
 * for Eq. (1). */
Bfv
customMaxima(const BehaviorRepr &repr)
{
    Bfv maxima;
    for (FnId id : repr.customFns) {
        const Bfv &b = repr.records[id].bfv;
        maxima.numBlocks = std::max(maxima.numBlocks, b.numBlocks);
        maxima.numCallers = std::max(maxima.numCallers, b.numCallers);
        maxima.numLibCalls =
            std::max(maxima.numLibCalls, b.numLibCalls);
        maxima.numAnchorCalls =
            std::max(maxima.numAnchorCalls, b.numAnchorCalls);
    }
    return maxima;
}

} // namespace

InferenceResult
inferIts(const BehaviorRepr &repr, const InferConfig &config)
{
    InferenceResult result;
    result.numCustom = repr.customFns.size();
    result.numAnchors = repr.anchorFns.size();

    if (repr.customFns.empty()) {
        result.error = "no custom functions to rank";
        return result;
    }
    if (repr.anchorFns.empty()) {
        result.error = "no anchor implementations found in the "
                       "dependency libraries";
        return result;
    }

    // Feature matrices under the configured ablation.
    ml::Matrix customVecs;
    customVecs.reserve(repr.customFns.size());
    for (FnId id : repr.customFns)
        customVecs.push_back(featureVector(repr.records[id],
                                           config));
    ml::Matrix anchorVecs;
    anchorVecs.reserve(repr.anchorFns.size());
    for (FnId id : repr.anchorFns)
        anchorVecs.push_back(featureVector(repr.records[id],
                                           config));

    // ---- Candidate selection ---------------------------------------
    // Indices into repr.customFns.
    obs::ScopedTimer clusterTimer("cluster");
    std::vector<std::size_t> candidates;

    // Scoring may happen in a transformed space for the §4.5
    // preprocessing baselines. Non-transforming strategies score the
    // raw feature matrices in place — the transformed matrices are
    // materialized (and owned) only by the branches that need them,
    // instead of copying both full matrices up front.
    ml::Matrix transformedCustom;
    ml::Matrix transformedAnchor;
    const ml::Matrix *scoreCustom = &customVecs;
    const ml::Matrix *scoreAnchor = &anchorVecs;
    const auto scoreTransformed = [&] {
        scoreCustom = &transformedCustom;
        scoreAnchor = &transformedAnchor;
    };

    switch (config.strategy) {
      case CandidateStrategy::BehaviorClustering: {
        // Cluster max-abs-scaled BFVs; DBSCAN noise points become
        // singleton classes so rare behaviours are not discarded
        // outright — the complexity filter decides.
        //
        // Scoring also happens in this normalized space (with the
        // anchor rows scaled by the same per-dimension factors): raw-
        // scale cosine is dominated by whichever count feature is
        // largest — exactly the failure §4.5 attributes to removing
        // the multi-stage strategy, which the DirectScoring branch
        // below reproduces by scoring raw vectors.
        const ml::Vec factors = ml::columnAbsMax(customVecs);
        auto scaleBy = [&factors](const ml::Matrix &m) {
            ml::Matrix out = m;
            for (auto &row : out) {
                for (std::size_t c = 0; c < row.size(); ++c) {
                    if (factors[c] != 0.0)
                        row[c] /= factors[c];
                }
            }
            return out;
        };
        transformedCustom = scaleBy(customVecs);
        transformedAnchor = scaleBy(anchorVecs);
        scoreTransformed();
        const obs::ScopedTimer kernelTimer("kernel.cluster");
        const ml::DbscanResult clusters =
            ml::dbscan(transformedCustom, config.dbscan);
        result.numClusters =
            static_cast<std::size_t>(clusters.numClusters);

        std::vector<std::vector<std::size_t>> classes =
            clusters.allMembers();
        if (config.noiseAsSingletons) {
            for (std::size_t i = 0; i < clusters.labels.size(); ++i) {
                if (clusters.labels[i] == -1)
                    classes.push_back({i});
            }
        }
        if (classes.empty()) {
            result.error =
                "no behavior classes after dropping DBSCAN noise";
            return result;
        }

        // Eq. (1): class complexity = mean member complexity over the
        // normalized bb/caller/lib/anchor dimensions.
        const Bfv maxima = customMaxima(repr);
        std::vector<double> complexity(classes.size(), 0.0);
        double total = 0.0;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            double sum = 0.0;
            for (std::size_t member : classes[c]) {
                const FnId id = repr.customFns[member];
                sum += functionComplexity(repr.records[id].bfv, maxima);
            }
            complexity[c] =
                sum / static_cast<double>(classes[c].size());
            total += complexity[c];
        }
        const double average =
            total / static_cast<double>(classes.size());
        result.avgClassComplexity = average;

        for (std::size_t c = 0; c < classes.size(); ++c) {
            if (complexity[c] > average) {
                for (std::size_t member : classes[c])
                    candidates.push_back(member);
            }
        }
        break;
      }
      case CandidateStrategy::DirectScoring:
        for (std::size_t i = 0; i < repr.customFns.size(); ++i)
            candidates.push_back(i);
        break;
      case CandidateStrategy::Pca: {
        // Fit on the union so both sides live in one component space.
        ml::Matrix all = customVecs;
        all.insert(all.end(), anchorVecs.begin(), anchorVecs.end());
        const ml::PcaModel pca =
            ml::fitPca(all, config.pcaComponents);
        transformedCustom = pca.transformAll(customVecs);
        transformedAnchor = pca.transformAll(anchorVecs);
        scoreTransformed();
        for (std::size_t i = 0; i < repr.customFns.size(); ++i)
            candidates.push_back(i);
        break;
      }
      case CandidateStrategy::Standardize:
      case CandidateStrategy::MinMax: {
        ml::Matrix all = customVecs;
        all.insert(all.end(), anchorVecs.begin(), anchorVecs.end());
        const ml::Matrix scaledAll =
            config.strategy == CandidateStrategy::Standardize
                ? ml::standardize(all)
                : ml::minMaxScale(all);
        transformedCustom.assign(scaledAll.begin(),
                                 scaledAll.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         customVecs.size()));
        transformedAnchor.assign(scaledAll.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         customVecs.size()),
                                 scaledAll.end());
        scoreTransformed();
        for (std::size_t i = 0; i < repr.customFns.size(); ++i)
            candidates.push_back(i);
        break;
      }
    }

    result.numCandidates = candidates.size();
    result.clusterMs = clusterTimer.stopMs();

    // ---- Scoring (Eq. 2): mean similarity to the anchor matrix -----
    obs::ScopedTimer rankTimer("rank");
    const obs::ScopedTimer kernelRankTimer("kernel.rank");
    const ml::Matrix &custom = *scoreCustom;
    const ml::Matrix &anchors = *scoreAnchor;

    // Cosine fast path: norm() is a pure function of one row, so the
    // anchor norms can be hoisted out of the candidate loop and the
    // candidate norm out of the anchor loop. The quotient below uses
    // the exact expression (and zero checks) of cosineSimilarity(),
    // making each addend — and hence every score — bit-identical to
    // the generic path.
    std::vector<double> anchorNorms;
    if (config.scoreMetric == ml::Metric::Cosine) {
        anchorNorms.reserve(anchors.size());
        for (const auto &anchorRow : anchors)
            anchorNorms.push_back(ml::norm(anchorRow));
    }

    std::vector<RankedFunction> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t member : candidates) {
        const FnId id = repr.customFns[member];
        double sum = 0.0;
        if (config.scoreMetric == ml::Metric::Cosine) {
            const ml::Vec &row = custom[member];
            const double rowNorm = ml::norm(row);
            for (std::size_t a = 0; a < anchors.size(); ++a) {
                if (rowNorm == 0.0 || anchorNorms[a] == 0.0)
                    continue; // cosineSimilarity's zero-norm addend
                sum += ml::dot(row, anchors[a]) /
                       (rowNorm * anchorNorms[a]);
            }
        } else {
            for (const auto &anchorRow : anchors)
                sum += ml::similarity(config.scoreMetric,
                                      custom[member], anchorRow);
        }
        RankedFunction rf;
        rf.id = id;
        rf.entry = repr.records[id].entry;
        rf.name = repr.records[id].name;
        rf.score = sum / static_cast<double>(anchors.size());
        if (config.useSymbolNames && !rf.name.empty()) {
            // Vendor mode: blend the symbol-name prior (0.5-neutral).
            rf.score += config.symbolWeight *
                        (semanticNameScore(rf.name) - 0.5);
        }
        ranked.push_back(std::move(rf));
    }

    std::sort(ranked.begin(), ranked.end(),
              [](const RankedFunction &a, const RankedFunction &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.entry < b.entry; // deterministic ties
              });
    if (ranked.size() > config.maxRanked)
        ranked.resize(config.maxRanked);
    result.ranking = std::move(ranked);
    result.rankMs = rankTimer.stopMs();

    return result;
}

} // namespace fits::core
