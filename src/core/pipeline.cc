#include "pipeline.hh"

#include "cache/cache.hh"
#include "chaos/chaos.hh"
#include "core/behavior_io.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace fits::core {

namespace {

/** Flatten an artifact into the plain-data result the harness keeps. */
PipelineResult
resultFromArtifact(PipelineArtifact artifact)
{
    PipelineResult result;
    result.ok = artifact.ok;
    result.failureStage = artifact.failureStage;
    result.error = std::move(artifact.error);
    result.status = std::move(artifact.status);
    result.degraded = artifact.degraded;
    result.issues = std::move(artifact.issues);
    result.imageInfo = artifact.imageInfo;
    result.binaryName = std::move(artifact.binaryName);
    result.numFunctions = artifact.numFunctions;
    result.binaryBytes = artifact.binaryBytes;
    result.behavior = std::move(artifact.behavior);
    result.inference = std::move(artifact.inference);
    result.timings = artifact.timings;
    // The analysis chain borrows the target; it dies with `artifact`
    // right here and is never dereferenced again, so moving the target
    // out from under it is safe.
    if (artifact.target != nullptr)
        result.target = std::move(*artifact.target);
    return result;
}

const char *
failureStageName(PipelineResult::FailureStage stage)
{
    switch (stage) {
      case PipelineResult::FailureStage::None:      return "none";
      case PipelineResult::FailureStage::Unpack:    return "unpack";
      case PipelineResult::FailureStage::Select:    return "select";
      case PipelineResult::FailureStage::Inference: return "inference";
    }
    return "?";
}

void
recordRunCounters(const PipelineArtifact &artifact)
{
    if (!obs::enabled())
        return;
    obs::addCounter("pipeline.runs");
    if (artifact.ok) {
        obs::addCounter("pipeline.ok");
        obs::addCounter("pipeline.functions",
                        artifact.numFunctions);
    } else {
        obs::addCounter(std::string("pipeline.failures.") +
                        failureStageName(artifact.failureStage));
    }
    if (artifact.degraded)
        obs::addCounter("pipeline.degraded");
    if (!artifact.status.isOk()) {
        obs::addCounter(std::string("pipeline.errors.") +
                        support::stageName(artifact.status.stage()));
    }
    for (const auto &issue : artifact.issues) {
        obs::addCounter(std::string("pipeline.errors.") +
                        support::stageName(issue.stage()));
    }
}

} // namespace

FitsPipeline::FitsPipeline(PipelineConfig config)
    : config_(std::move(config))
{
}

PipelineResult
FitsPipeline::run(const std::vector<std::uint8_t> &firmware) const
{
    return resultFromArtifact(analyze(firmware));
}

PipelineResult
FitsPipeline::runOnTarget(fw::AnalysisTarget target) const
{
    return resultFromArtifact(analyzeTarget(std::move(target)));
}

PipelineArtifact
FitsPipeline::analyze(const std::vector<std::uint8_t> &firmware) const
{
    obs::ScopedTimer pipelineSpan("pipeline");
    PipelineArtifact artifact;

    // Behavior-cache fast path: the whole-sample behavior product is
    // kept on disk, keyed by (firmware content hash, behavior-config
    // fingerprint). An active stage budget disqualifies the sample —
    // budget-bound results are timing-dependent and must be neither
    // served nor stored. A hit replays stage 3 on the decoded
    // representation; any decode defect silently falls through to the
    // full pipeline.
    const bool cacheable = config_.behaviorCache &&
                           config_.budgets.behaviorMs <= 0.0 &&
                           !config_.behavior.ucse.deadline.active() &&
                           cache::diskUsable();
    std::uint64_t cacheKey1 = 0;
    std::uint64_t cacheKey2 = 0;
    if (cacheable) {
        cacheKey1 = support::fnv1a(firmware.data(), firmware.size());
        cacheKey2 = behaviorConfigFingerprint(config_.behavior);
        const auto payload =
            cache::fetchBlob("behavior", cacheKey1, cacheKey2);
        if (payload.has_value()) {
            auto bundle = decodeBehaviorBundle(*payload);
            if (bundle.has_value()) {
                artifact.imageInfo = bundle->imageInfo;
                artifact.binaryName = std::move(bundle->binaryName);
                artifact.numFunctions =
                    static_cast<std::size_t>(bundle->numFunctions);
                artifact.binaryBytes =
                    static_cast<std::size_t>(bundle->binaryBytes);
                artifact.behavior = std::move(bundle->behavior);
                runInferenceStage(artifact);
                recordRunCounters(artifact);
                return artifact;
            }
        }
    }

    // Stage 1a: unpack.
    obs::ScopedTimer unpackTimer("unpack");
    auto unpacked = fw::unpackFirmware(firmware);
    artifact.timings.unpackMs = unpackTimer.stopMs();
    if (!unpacked) {
        artifact.failureStage = PipelineResult::FailureStage::Unpack;
        artifact.error = unpacked.errorMessage();
        artifact.status = unpacked.status();
        recordRunCounters(artifact);
        return artifact;
    }

    // Stage 1b: select the network binary and resolve libraries.
    obs::ScopedTimer selectTimer("select");
    auto target = fw::selectAnalysisTarget(unpacked.value().filesystem);
    const double selectMs = selectTimer.stopMs();
    if (!target) {
        artifact.imageInfo = unpacked.value().info;
        artifact.timings.selectMs = selectMs;
        artifact.failureStage = PipelineResult::FailureStage::Select;
        artifact.error = target.errorMessage();
        artifact.status = target.status();
        recordRunCounters(artifact);
        return artifact;
    }

    PipelineArtifact rest = analyzeTargetStages(target.take());
    rest.imageInfo = unpacked.value().info;
    rest.timings.unpackMs = artifact.timings.unpackMs;
    rest.timings.selectMs = selectMs;

    // Store the behavior product for the next run over these bytes.
    // Degraded samples are excluded: their representation reflects
    // missing libraries or expired budgets, not the firmware.
    if (cacheable && rest.hasAnalysis() && !rest.degraded) {
        BehaviorBundle bundle;
        bundle.imageInfo = rest.imageInfo;
        bundle.binaryName = rest.binaryName;
        bundle.numFunctions = rest.numFunctions;
        bundle.binaryBytes = rest.binaryBytes;
        bundle.behavior = rest.behavior;
        cache::storeBlob("behavior", cacheKey1, cacheKey2,
                         encodeBehaviorBundle(bundle));
    }

    recordRunCounters(rest);
    return rest;
}

PipelineArtifact
FitsPipeline::analyzeTarget(fw::AnalysisTarget target) const
{
    obs::ScopedTimer pipelineSpan("pipeline");
    PipelineArtifact artifact =
        analyzeTargetStages(std::move(target));
    recordRunCounters(artifact);
    return artifact;
}

PipelineArtifact
FitsPipeline::analyzeTargetStages(fw::AnalysisTarget target) const
{
    PipelineArtifact artifact;
    artifact.target =
        std::make_unique<fw::AnalysisTarget>(std::move(target));
    artifact.binaryName = artifact.target->main->name;
    artifact.numFunctions = artifact.target->main->program.size();
    artifact.binaryBytes = artifact.target->main->byteSize();

    // A library that failed to lift degrades the run: analysis
    // proceeds against what did load, with the gaps on record.
    for (const auto &dep : artifact.target->missingLibraries) {
        artifact.degraded = true;
        artifact.issues.push_back(support::Status::error(
            support::Stage::Select, support::ErrorCode::NotFound,
            "library did not lift: " + dep));
    }

    // Stage 2: behavior representation (Algorithm 1), as three spans:
    // lift (link the images into one view), UCSE (whole-program
    // analysis), and BFV extraction. The linked view and the analysis
    // are retained on the artifact so taint engines can reuse them
    // without re-analyzing the binary.
    {
        obs::ScopedTimer liftTimer("lift");
        artifact.linked = std::make_unique<analysis::LinkedProgram>(
            *artifact.target->main, artifact.target->libraries);
        artifact.timings.liftMs = liftTimer.stopMs();
    }
    {
        obs::ScopedTimer ucseTimer("ucse");
        analysis::UcseConfig ucseConfig = config_.behavior.ucse;
        if (config_.budgets.behaviorMs > 0.0) {
            // One deadline for the whole stage, shared by every
            // function's exploration and dataflow pass.
            ucseConfig.deadline =
                support::Deadline::afterMs(config_.budgets.behaviorMs);
        }

        // The main binary is unique to this sample, so its analyses
        // are built in place. Each library's analyses come from the
        // cache's library tier keyed by content + config, so a library
        // shared by many samples is UCSE-analyzed once. Appending in
        // [main, libs...] order reproduces the LinkedProgram's FnId
        // order exactly; the cache computes directly (bit-identically)
        // whenever it is bypassed — e.g. under an active deadline or
        // non-cache fault injection.
        const bin::BinaryImage &mainImage = *artifact.target->main;
        std::vector<analysis::FunctionAnalysis> fns;
        fns.reserve(artifact.linked->fnCount());
        for (const auto &fn : mainImage.program.functions()) {
            fns.push_back(analysis::FunctionAnalysis::analyze(
                mainImage, fn, ucseConfig));
        }
        for (const auto &lib : artifact.target->libraries) {
            const auto shared = cache::functionAnalyses(lib, ucseConfig);
            fns.insert(fns.end(), shared->begin(), shared->end());
        }
        artifact.analysis =
            std::make_unique<analysis::ProgramAnalysis>(
                analysis::ProgramAnalysis::fromFunctionAnalyses(
                    *artifact.linked, std::move(fns)));
        artifact.timings.ucseMs = ucseTimer.stopMs();

        std::size_t expired = 0;
        for (const auto &fa : artifact.analysis->fns) {
            if (fa.ucse.deadlineExpired || fa.flow.deadlineExpired)
                ++expired;
        }
        if (expired > 0) {
            artifact.degraded = true;
            artifact.issues.push_back(support::Status::error(
                support::Stage::Ucse, support::ErrorCode::Timeout,
                "behavior stage budget expired; " +
                    std::to_string(expired) +
                    " function(s) analyzed partially"));
        }
    }
    {
        obs::ScopedTimer bfvTimer("bfv");
        const BehaviorAnalyzer analyzer(config_.behavior);
        artifact.behavior = analyzer.analyze(*artifact.analysis);
        artifact.timings.bfvMs = bfvTimer.stopMs();
    }
    artifact.timings.behaviorMs = artifact.timings.liftMs +
                                  artifact.timings.ucseMs +
                                  artifact.timings.bfvMs;

    // Stage 3: inference (Algorithm 2).
    runInferenceStage(artifact);
    return artifact;
}

void
FitsPipeline::runInferenceStage(PipelineArtifact &artifact) const
{
    obs::ScopedTimer inferTimer("infer");
    if (chaos::shouldInject("infer.rank")) {
        artifact.timings.inferMs = inferTimer.stopMs();
        artifact.failureStage =
            PipelineResult::FailureStage::Inference;
        artifact.status = chaos::injectedStatus("infer.rank");
        artifact.error = artifact.status.message();
        return;
    }
    artifact.inference = inferIts(artifact.behavior, config_.infer);
    artifact.timings.inferMs = inferTimer.stopMs();
    artifact.timings.clusterMs = artifact.inference.clusterMs;
    artifact.timings.rankMs = artifact.inference.rankMs;

    if (!artifact.inference.ok()) {
        artifact.failureStage =
            PipelineResult::FailureStage::Inference;
        artifact.error = artifact.inference.error;
        artifact.status = support::Status::error(
            support::Stage::Infer, support::ErrorCode::NotFound,
            artifact.inference.error);
        return;
    }

    support::logInfo(
        "pipeline",
        artifact.binaryName + ": ranked " +
            std::to_string(artifact.inference.ranking.size()) +
            " ITS candidates");

    artifact.ok = true;
}

} // namespace fits::core
