#ifndef FITS_CORE_PIPELINE_HH_
#define FITS_CORE_PIPELINE_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/behavior.hh"
#include "core/infer.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "support/deadline.hh"
#include "support/status.hh"

namespace fits::core {

/**
 * Per-stage wall-clock budgets in milliseconds; 0 = unlimited. The
 * default is taken from FITS_STAGE_TIMEOUT_MS (0 when unset). One knob
 * bounds the two stages that check a deadline: the behavior stage's
 * UCSE exploration plus parameter dataflow, and each of the two taint
 * engines (STA, Karonte). Unpack, lift, BFV extraction, DBSCAN and
 * ranking check no deadline and are not bounded by it. An expired
 * budget degrades the result (partial data, `degraded` set) rather
 * than failing it.
 */
struct StageBudgets
{
    /** Behavior stage: UCSE exploration + reaching definitions. */
    double behaviorMs = support::envStageTimeoutMs();
    /** Taint engines (consumed by the evaluation harness). */
    double taintMs = support::envStageTimeoutMs();
};

/** Configuration of the whole FITS pipeline. */
struct PipelineConfig
{
    BehaviorAnalyzer::Config behavior;
    InferConfig infer;
    StageBudgets budgets;

    /**
     * Consult the analysis cache's disk tier for whole-sample behavior
     * representations (keyed by firmware content hash + behavior-config
     * fingerprint): a warm hit skips unpack through BFV extraction and
     * goes straight to inference. Off by default because a cached
     * artifact carries no analysis chain — callers that need taint
     * analysis (or the artifact's linked/analysis members) must leave
     * this off. Rankings are bit-identical either way.
     */
    bool behaviorCache = false;
};

/**
 * Wall-clock time of each pipeline stage, in milliseconds. These are
 * plain-data views over the `fits::obs` span timers ("pipeline/…"):
 * the same measurement that lands in the metrics registry is copied
 * here so per-sample results stay self-contained.
 */
struct StageTimings
{
    double unpackMs = 0.0;
    double selectMs = 0.0;
    double behaviorMs = 0.0; ///< lift + UCSE + BFV extraction
    double inferMs = 0.0;    ///< clustering + ranking

    /** Sub-stages of behaviorMs ("pipeline/lift|ucse|bfv" spans). */
    double liftMs = 0.0;
    double ucseMs = 0.0;
    double bfvMs = 0.0;

    /** Sub-stages of inferMs ("pipeline/infer/cluster|rank" spans). */
    double clusterMs = 0.0;
    double rankMs = 0.0;

    double
    totalMs() const
    {
        return unpackMs + selectMs + behaviorMs + inferMs;
    }
};

/**
 * End-to-end result of running FITS on one firmware image. All fields
 * are plain data (no pointers into other fields), so results can be
 * collected in bulk by the evaluation harness.
 */
struct PipelineResult
{
    enum class FailureStage : std::uint8_t {
        None,
        Unpack,    ///< image did not unpack (magic / crypto / corrupt)
        Select,    ///< no network binary found
        Inference, ///< no anchors or no custom functions
    };

    bool ok = false;
    FailureStage failureStage = FailureStage::None;
    std::string error;
    /** Typed form of `error` (stage + code); Ok when the run passed. */
    support::Status status;

    /** The run produced usable but partial output: a library failed to
     * lift, or a stage budget expired mid-analysis. `issues` lists the
     * typed reasons. A degraded run still has ok == true. */
    bool degraded = false;
    std::vector<support::Status> issues;

    fw::ImageInfo imageInfo;
    std::string binaryName;
    std::size_t numFunctions = 0;
    std::size_t binaryBytes = 0;

    /** The selected binary and its libraries, kept for taint analysis. */
    fw::AnalysisTarget target;

    /** Behavior representations of all functions (kept so evaluation
     * variants can re-rank without re-analyzing). */
    BehaviorRepr behavior;

    InferenceResult inference;
    StageTimings timings;
};

/**
 * The reusable per-sample artifact: everything one pipeline pass
 * computes, *including* the whole-program analysis that PipelineResult
 * drops. Taint engines, re-ranking experiments, and combined
 * inference+taint evaluation all consume the same artifact, so a
 * sample is unpacked, selected, and analyzed exactly once.
 *
 * The target/linked/analysis chain borrows downward (ProgramAnalysis
 * borrows LinkedProgram borrows AnalysisTarget); each link is
 * heap-allocated so the artifact can be moved without invalidating the
 * chain. Move-only.
 */
struct PipelineArtifact
{
    bool ok = false;
    PipelineResult::FailureStage failureStage =
        PipelineResult::FailureStage::None;
    std::string error;
    support::Status status;

    /** See PipelineResult::degraded. */
    bool degraded = false;
    std::vector<support::Status> issues;

    fw::ImageInfo imageInfo;
    std::string binaryName;
    std::size_t numFunctions = 0;
    std::size_t binaryBytes = 0;

    std::unique_ptr<fw::AnalysisTarget> target;
    std::unique_ptr<analysis::LinkedProgram> linked;
    std::unique_ptr<analysis::ProgramAnalysis> analysis;

    BehaviorRepr behavior;
    InferenceResult inference;
    StageTimings timings;

    /** True once stage 1 succeeded (analysis chain is populated). */
    bool
    hasAnalysis() const
    {
        return analysis != nullptr;
    }
};

/**
 * The FITS pipeline of Figure 3: unpack the firmware, select the
 * network binary and its libraries, compute behavior representations,
 * and rank custom functions as ITS candidates.
 */
class FitsPipeline
{
  public:
    explicit FitsPipeline(PipelineConfig config = {});

    /** Full run from raw firmware image bytes. */
    PipelineResult run(const std::vector<std::uint8_t> &firmware) const;

    /** Run from an already-selected analysis target (skips stage 1). */
    PipelineResult runOnTarget(fw::AnalysisTarget target) const;

    /** Full run that retains the whole-program analysis for reuse. */
    PipelineArtifact analyze(
        const std::vector<std::uint8_t> &firmware) const;

    /** Artifact run from an already-selected target (skips stage 1). */
    PipelineArtifact analyzeTarget(fw::AnalysisTarget target) const;

    const PipelineConfig &config() const { return config_; }

  private:
    /** Stage 2+3 without the whole-run span (callers own that). */
    PipelineArtifact analyzeTargetStages(fw::AnalysisTarget target)
        const;

    /** Stage 3 on an artifact whose `behavior` is populated; shared by
     * the full path and the behavior-cache hit path. */
    void runInferenceStage(PipelineArtifact &artifact) const;

    PipelineConfig config_;
};

} // namespace fits::core

#endif // FITS_CORE_PIPELINE_HH_
