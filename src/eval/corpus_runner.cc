#include "corpus_runner.hh"

#include <algorithm>

namespace fits::eval {

namespace {

/** A failure worth one more attempt: an expired deadline, an injected
 * fault, or an internal error — anything a second, cheaper run can
 * plausibly get past. Deterministic parse errors are not retried. */
bool
retryable(const InferenceOutcome &outcome)
{
    return !outcome.ok && !outcome.status.isOk() &&
           outcome.status.isTransient();
}

/** Reduced-budget pipeline config used for the one retry a
 * transiently-failed sample gets. */
core::PipelineConfig
degradedPipelineConfig(core::PipelineConfig config)
{
    // The retry runs under a reduced UCSE budget: a sample that timed
    // out (or tripped a transient fault) gets one more chance to
    // produce a partial result instead of none.
    config.behavior.ucse.maxSteps = std::min<std::size_t>(
        config.behavior.ucse.maxSteps, 10000);
    config.behavior.ucse.maxVisitsPerBlock = std::min<std::size_t>(
        config.behavior.ucse.maxVisitsPerBlock, 2);
    // Retries never touch the behavior cache: a sample that just
    // failed transiently should be recomputed from scratch, not
    // have its recovery product stored for future runs.
    config.behaviorCache = false;
    return config;
}

} // namespace

CorpusRunner::CorpusRunner(Config config)
    : config_(std::move(config)),
      jobs_(support::resolveJobs(config_.jobs))
{
}

std::vector<CorpusRunner::FullOutcome>
CorpusRunner::run(const std::vector<synth::GeneratedFirmware> &corpus,
                  bool taint) const
{
    core::PipelineConfig pipeline = config_.pipeline;
    // A behavior-cache hit carries no analysis chain for the taint
    // engines to reuse, so taint runs always re-analyze.
    pipeline.behaviorCache = config_.cache && !taint;
    const core::PipelineConfig degraded =
        degradedPipelineConfig(config_.pipeline);

    const auto evaluate = [&](const synth::GeneratedFirmware &fw,
                              const core::PipelineConfig &config) {
        const core::PipelineArtifact artifact =
            core::FitsPipeline(config).analyze(fw.bytes);
        FullOutcome full;
        full.inference = inferenceOutcome(artifact, fw.spec, fw.truth);
        if (taint) {
            full.taint = taintOutcome(artifact, fw.spec, fw.truth,
                                      config.budgets.taintMs);
        }
        return full;
    };
    return map<FullOutcome>(
        corpus.size(),
        [&](std::size_t i) {
            FullOutcome full = evaluate(corpus[i], pipeline);
            if (retryable(full.inference)) {
                obs::addCounter("corpus.retries");
                full = evaluate(corpus[i], degraded);
                full.inference.retried = true;
                full.taint.retried = taint;
            }
            return full;
        },
        [&](std::size_t i, const std::string &message) {
            FullOutcome full;
            full.inference.spec = corpus[i].spec;
            full.inference.truth = corpus[i].truth;
            full.inference.error = "worker exception: " + message;
            full.inference.status =
                support::Status::internal(full.inference.error);
            full.taint.spec = corpus[i].spec;
            full.taint.error = full.inference.error;
            full.taint.status = full.inference.status;
            return full;
        });
}

} // namespace fits::eval
