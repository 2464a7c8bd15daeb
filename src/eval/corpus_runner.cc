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

} // namespace

CorpusRunner::CorpusRunner(Config config)
    : config_(std::move(config)),
      jobs_(support::resolveJobs(config_.jobs))
{
}

core::PipelineConfig
CorpusRunner::degradedPipelineConfig() const
{
    // The retry runs under a reduced UCSE budget: a sample that timed
    // out (or tripped a transient fault) gets one more chance to
    // produce a partial result instead of none.
    core::PipelineConfig config = config_.pipeline;
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

core::PipelineConfig
CorpusRunner::inferencePipelineConfig() const
{
    core::PipelineConfig config = config_.pipeline;
    config.behaviorCache = config_.cache;
    return config;
}

core::PipelineConfig
CorpusRunner::taintPipelineConfig() const
{
    core::PipelineConfig config = config_.pipeline;
    config.behaviorCache = false;
    return config;
}

std::vector<InferenceOutcome>
CorpusRunner::runInference(
    const std::vector<synth::GeneratedFirmware> &corpus) const
{
    const core::PipelineConfig pipeline = inferencePipelineConfig();
    return map<InferenceOutcome>(
        corpus.size(),
        [&](std::size_t i) {
            auto outcome = eval::runInference(corpus[i], pipeline);
            if (retryable(outcome)) {
                obs::addCounter("corpus.retries");
                outcome = eval::runInference(
                    corpus[i], degradedPipelineConfig());
                outcome.retried = true;
            }
            return outcome;
        },
        [&](std::size_t i, const std::string &message) {
            InferenceOutcome outcome;
            outcome.spec = corpus[i].spec;
            outcome.truth = corpus[i].truth;
            outcome.error = "worker exception: " + message;
            outcome.status = support::Status::internal(outcome.error);
            return outcome;
        });
}

std::vector<InferenceOutcome>
CorpusRunner::runInferenceOnSpecs(
    const std::vector<synth::SampleSpec> &specs) const
{
    const core::PipelineConfig pipeline = inferencePipelineConfig();
    return map<InferenceOutcome>(
        specs.size(),
        [&](std::size_t i) {
            const auto fw = synth::generateFirmware(specs[i]);
            auto outcome = eval::runInference(fw, pipeline);
            if (retryable(outcome)) {
                obs::addCounter("corpus.retries");
                outcome =
                    eval::runInference(fw, degradedPipelineConfig());
                outcome.retried = true;
            }
            return outcome;
        },
        [&](std::size_t i, const std::string &message) {
            InferenceOutcome outcome;
            outcome.spec = specs[i];
            outcome.error = "worker exception: " + message;
            outcome.status = support::Status::internal(outcome.error);
            return outcome;
        });
}

std::vector<TaintOutcome>
CorpusRunner::runTaint(
    const std::vector<synth::GeneratedFirmware> &corpus) const
{
    const core::PipelineConfig pipeline = taintPipelineConfig();
    return map<TaintOutcome>(
        corpus.size(),
        [&](std::size_t i) {
            auto outcome = eval::runTaint(corpus[i], pipeline);
            if (!outcome.ok && !outcome.status.isOk() &&
                outcome.status.isTransient()) {
                obs::addCounter("corpus.retries");
                outcome = eval::runTaint(corpus[i],
                                         degradedPipelineConfig());
                outcome.retried = true;
            }
            return outcome;
        },
        [&](std::size_t i, const std::string &message) {
            TaintOutcome outcome;
            outcome.spec = corpus[i].spec;
            outcome.error = "worker exception: " + message;
            outcome.status = support::Status::internal(outcome.error);
            return outcome;
        });
}

std::vector<CorpusRunner::FullOutcome>
CorpusRunner::runFull(
    const std::vector<synth::GeneratedFirmware> &corpus) const
{
    return map<FullOutcome>(
        corpus.size(),
        [&](std::size_t i) {
            const auto analyzeWith =
                [&](const core::PipelineConfig &config) {
                    const core::FitsPipeline pipeline(config);
                    const core::PipelineArtifact artifact =
                        pipeline.analyze(corpus[i].bytes);
                    FullOutcome full;
                    full.inference = inferenceOutcome(
                        artifact, corpus[i].spec, corpus[i].truth);
                    full.taint = taintOutcome(
                        artifact, corpus[i].spec, corpus[i].truth,
                        config.budgets.taintMs);
                    return full;
                };
            FullOutcome full = analyzeWith(taintPipelineConfig());
            if (retryable(full.inference)) {
                obs::addCounter("corpus.retries");
                full = analyzeWith(degradedPipelineConfig());
                full.inference.retried = true;
                full.taint.retried = true;
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
