#include "harness.hh"

#include <algorithm>
#include <set>

#include "support/strings.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits::eval {

InferenceOutcome
runInference(const synth::GeneratedFirmware &fw,
             const core::PipelineConfig &config)
{
    const core::FitsPipeline pipeline(config);
    return inferenceOutcome(pipeline.analyze(fw.bytes), fw.spec,
                            fw.truth);
}

InferenceOutcome
inferenceOutcome(const core::PipelineArtifact &artifact,
                 const synth::SampleSpec &spec,
                 const synth::GroundTruth &truth)
{
    InferenceOutcome outcome;
    outcome.spec = spec;
    outcome.truth = truth;

    outcome.failureStage = artifact.failureStage;
    outcome.error = artifact.error;
    outcome.status = artifact.status;
    outcome.degraded = artifact.degraded;
    outcome.issues = artifact.issues;
    outcome.binaryName = artifact.binaryName;
    outcome.numFunctions = artifact.numFunctions;
    outcome.binaryBytes = artifact.binaryBytes;
    outcome.analysisMs = artifact.timings.totalMs();
    if (!artifact.ok)
        return outcome;

    outcome.ok = true;
    outcome.ranking = artifact.inference.ranking;
    outcome.behavior = artifact.behavior;
    outcome.firstItsRank = rankOfFirstIts(outcome.ranking, truth);
    return outcome;
}

int
rankOfFirstIts(const std::vector<core::RankedFunction> &ranking,
               const synth::GroundTruth &truth)
{
    for (std::size_t i = 0; i < ranking.size(); ++i) {
        if (std::find(truth.itsFunctions.begin(),
                      truth.itsFunctions.end(),
                      ranking[i].entry) != truth.itsFunctions.end()) {
            return static_cast<int>(i) + 1;
        }
    }
    return -1;
}

void
PrecisionStats::addRank(int rank)
{
    ++total;
    if (rank == 1)
        ++top1;
    if (rank >= 1 && rank <= 2)
        ++top2;
    if (rank >= 1 && rank <= 3)
        ++top3;
}

namespace {

double
ratio(int hits, int total)
{
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
}

} // namespace

double
PrecisionStats::p1() const
{
    return ratio(top1, total);
}

double
PrecisionStats::p2() const
{
    return ratio(top2, total);
}

double
PrecisionStats::p3() const
{
    return ratio(top3, total);
}

EngineStats &
EngineStats::operator+=(const EngineStats &other)
{
    alerts += other.alerts;
    bugs += other.bugs;
    ms += other.ms;
    return *this;
}

EngineStats
scoreReport(const std::vector<taint::Alert> &alerts,
            const synth::GroundTruth &truth, double ms,
            std::vector<ir::Addr> *bugSites)
{
    EngineStats stats;
    stats.ms = ms;
    stats.alerts = alerts.size();
    std::set<ir::Addr> bugs;
    for (const auto &alert : alerts) {
        const synth::SinkSite *site = truth.siteAt(alert.sinkSite);
        if (site != nullptr && site->isBug())
            bugs.insert(alert.sinkSite);
    }
    stats.bugs = bugs.size();
    if (bugSites != nullptr)
        bugSites->assign(bugs.begin(), bugs.end());
    return stats;
}

TaintOutcome
runTaint(const synth::GeneratedFirmware &fw,
         const core::PipelineConfig &config)
{
    const core::FitsPipeline pipeline(config);
    return taintOutcome(pipeline.analyze(fw.bytes), fw.spec, fw.truth,
                        config.budgets.taintMs);
}

TaintOutcome
taintOutcome(const core::PipelineArtifact &artifact,
             const synth::SampleSpec &spec,
             const synth::GroundTruth &truth, double taintBudgetMs)
{
    TaintOutcome outcome;
    outcome.spec = spec;
    outcome.degraded = artifact.degraded;
    outcome.issues = artifact.issues;

    // Stage-1 failures have nothing to run the engines on. An
    // inference-stage failure still does: the engines run with the
    // classical sources alone (the ranking is simply empty).
    if (!artifact.hasAnalysis()) {
        outcome.error = artifact.error;
        outcome.status = artifact.status;
        return outcome;
    }
    const analysis::ProgramAnalysis &pa = *artifact.analysis;

    // "Verify" the inferred ITSs: the top-3 candidates that ground
    // truth confirms (the manual-verification step of §4.1).
    std::vector<taint::TaintSource> itsSources;
    const std::size_t considered =
        std::min<std::size_t>(3, artifact.inference.ranking.size());
    for (std::size_t i = 0; i < considered; ++i) {
        const ir::Addr entry = artifact.inference.ranking[i].entry;
        if (std::find(truth.itsFunctions.begin(),
                      truth.itsFunctions.end(),
                      entry) != truth.itsFunctions.end()) {
            itsSources.push_back(taint::TaintSource::its(
                entry, support::hex(entry)));
        }
    }

    const auto cts = taint::classicalTaintSources();
    auto ctsPlusIts = cts;
    ctsPlusIts.insert(ctsPlusIts.end(), itsSources.begin(),
                      itsSources.end());

    taint::KaronteEngine::Config karonteConfig;
    karonteConfig.deadlineMs = taintBudgetMs;
    taint::StaEngine::Config staConfig;
    staConfig.deadlineMs = taintBudgetMs;
    const taint::KaronteEngine karonte(karonteConfig);
    const taint::StaEngine sta(staConfig);

    // A report cut short by the wall-clock budget is still scored —
    // its alerts are valid, just not a full sweep — and the outcome is
    // flagged so aggregate tables can exclude or annotate it.
    const auto noteExpiry = [&outcome](const taint::TaintReport &report,
                                       const char *engine) {
        if (!report.deadlineExpired)
            return;
        outcome.degraded = true;
        outcome.issues.push_back(support::Status::error(
            support::Stage::Taint, support::ErrorCode::Timeout,
            std::string(engine) + " stopped at the stage deadline"));
    };

    {
        const auto report = karonte.run(pa, cts);
        noteExpiry(report, "karonte");
        outcome.karonte = scoreReport(report.alerts, truth,
                                      report.analysisMs,
                                      &outcome.karonteBugs);
    }
    {
        const auto report = karonte.run(pa, ctsPlusIts);
        noteExpiry(report, "karonte+its");
        outcome.karonteIts = scoreReport(report.filteredAlerts(),
                                         truth, report.analysisMs,
                                         &outcome.karonteItsBugs);
    }
    {
        // One fixpoint serves both STA configurations: the CTS report
        // is the CTS+ITS report restricted to the CTS label bits (see
        // StaEngine::prefixReport), and both carry the run's time.
        const auto withIts = sta.run(pa, ctsPlusIts);
        const auto vanilla =
            sta.prefixReport(pa, ctsPlusIts, cts.size(), withIts);
        noteExpiry(vanilla, "sta");
        outcome.sta = scoreReport(vanilla.alerts, truth,
                                  vanilla.analysisMs, &outcome.staBugs);
        noteExpiry(withIts, "sta+its");
        outcome.staIts = scoreReport(withIts.filteredAlerts(), truth,
                                     withIts.analysisMs,
                                     &outcome.staItsBugs);
    }

    outcome.ok = true;
    return outcome;
}

} // namespace fits::eval
