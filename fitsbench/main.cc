// Benchmark program for the FITS pipeline.
//
//   fitsbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR
//
// Set-up generates the workload's firmware from the seed (and, for
// corpus-warm, fills a disk cache); the timed window then hands only
// the generated images to the program, pass after pass, until S
// seconds are spent. Untraced passes call the program exactly as
// eval::CorpusRunner does; traced passes make the same public calls
// FitsPipeline::analyze makes, each wrapped in a span, and give the
// per-layer figures. The last stdout line is one JSON object with
// every metric; run.py selects the ones BENCHMARK.json names.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "cache/cache.hh"
#include "core/behavior_io.hh"
#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/harness.hh"
#include "obs/metrics.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "trace.hh"
#include "workloads.hh"

extern char **environ;

namespace {

using namespace fits;
using fitsbench::Clock;
using FM = synth::SampleSpec::FailureMode;
using FS = core::PipelineResult::FailureStage;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** Fewest sample analyses whose 90th percentile has ten beyond it. */
constexpr std::size_t kMinSampleRuns = 100;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;
};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Everything one sample's analysis hands back to the benchmark. */
struct Outcome
{
    eval::InferenceOutcome inference;
    std::optional<eval::TaintOutcome> taint;
    std::vector<fitsbench::Span> spans;
    std::size_t functions = 0;      ///< functions linked for UCSE
    std::uint64_t selectHits = 0;   ///< cache hits during select
};

/** The untraced path: what CorpusRunner::runFull / runInference run
 * per sample, minus the retry (a retried sample counts as failed). */
Outcome
analyzeProgram(const synth::GeneratedFirmware &fw,
               const core::PipelineConfig &config, bool taint)
{
    Outcome out;
    const core::FitsPipeline pipeline(config);
    const core::PipelineArtifact artifact = pipeline.analyze(fw.bytes);
    out.inference = eval::inferenceOutcome(artifact, fw.spec, fw.truth);
    if (taint) {
        out.taint = eval::taintOutcome(artifact, fw.spec, fw.truth,
                                       config.budgets.taintMs);
    }
    return out;
}

void
inferStage(fitsbench::SampleTrace &trace, core::PipelineArtifact &art,
           const core::PipelineConfig &config)
{
    art.inference = trace.span("core.infer", [&] {
        return core::inferIts(art.behavior, config.infer);
    });
    if (!art.inference.ok()) {
        art.failureStage = FS::Inference;
        art.error = art.inference.error;
        art.status = support::Status::error(support::Stage::Infer,
                                            support::ErrorCode::NotFound,
                                            art.inference.error);
        return;
    }
    art.ok = true;
}

/** Stages 1-3 of FitsPipeline::analyze, call for call. The benchmark
 * sets no stage budget, so the pipeline's deadline handling is inert
 * and left out. */
void
runStages(fitsbench::SampleTrace &trace, core::PipelineArtifact &art,
          const core::PipelineConfig &config,
          const std::vector<std::uint8_t> &bytes, Outcome &out)
{
    auto unpacked = trace.span("firmware.unpack",
                               [&] { return fw::unpackFirmware(bytes); });
    if (!unpacked) {
        art.failureStage = FS::Unpack;
        art.error = unpacked.errorMessage();
        art.status = unpacked.status();
        return;
    }
    art.imageInfo = unpacked.value().info;

    const std::uint64_t hitsBefore = cache::stats().hits;
    auto target = trace.span("firmware.select", [&] {
        return fw::selectAnalysisTarget(unpacked.value().filesystem);
    });
    out.selectHits = cache::stats().hits - hitsBefore;
    if (!target) {
        art.failureStage = FS::Select;
        art.error = target.errorMessage();
        art.status = target.status();
        return;
    }
    art.target = std::make_unique<fw::AnalysisTarget>(target.take());
    art.binaryName = art.target->main->name;
    art.numFunctions = art.target->main->program.size();
    art.binaryBytes = art.target->main->byteSize();
    for (const auto &dep : art.target->missingLibraries) {
        art.degraded = true;
        art.issues.push_back(support::Status::error(
            support::Stage::Select, support::ErrorCode::NotFound,
            "library did not lift: " + dep));
    }

    trace.span("analysis.link", [&] {
        art.linked = std::make_unique<analysis::LinkedProgram>(
            *art.target->main, art.target->libraries);
    });
    out.functions = art.linked->fnCount();
    auto fns = trace.span("analysis.ucse", [&] {
        std::vector<analysis::FunctionAnalysis> all;
        all.reserve(art.linked->fnCount());
        const auto append =
            [&](const std::shared_ptr<const bin::BinaryImage> &image) {
                const auto cached =
                    cache::functionAnalyses(image, config.behavior.ucse);
                all.insert(all.end(), cached->begin(), cached->end());
            };
        append(art.target->main);
        for (const auto &lib : art.target->libraries)
            append(lib);
        return all;
    });
    trace.span("analysis.callgraph", [&] {
        art.analysis = std::make_unique<analysis::ProgramAnalysis>(
            analysis::ProgramAnalysis::fromFunctionAnalyses(
                *art.linked, std::move(fns)));
    });
    trace.span("core.bfv", [&] {
        art.behavior =
            core::BehaviorAnalyzer(config.behavior).analyze(*art.analysis);
    });
    inferStage(trace, art, config);
}

/** The traced path. A behavior-cache miss runs the full stages but
 * stores nothing: in a warm pass a miss is already a failure. */
Outcome
analyzeTraced(const synth::GeneratedFirmware &fw,
              const core::PipelineConfig &config, bool taint,
              std::uint32_t sampleId)
{
    Outcome out;
    fitsbench::SampleTrace trace(sampleId);
    {
        core::PipelineArtifact art;
        bool hit = false;
        if (config.behaviorCache &&
            (cache::memoryUsable() || cache::diskUsable())) {
            auto bundle = trace.span("cache.fetch", [&] {
                const std::uint64_t key1 =
                    support::fnv1a(fw.bytes.data(), fw.bytes.size());
                const std::uint64_t key2 =
                    core::behaviorConfigFingerprint(config.behavior);
                const auto payload =
                    cache::fetchBlob("behavior", key1, key2);
                return payload ? core::decodeBehaviorBundle(*payload)
                               : std::nullopt;
            });
            if (bundle) {
                art.imageInfo = bundle->imageInfo;
                art.binaryName = std::move(bundle->binaryName);
                art.numFunctions =
                    static_cast<std::size_t>(bundle->numFunctions);
                art.binaryBytes =
                    static_cast<std::size_t>(bundle->binaryBytes);
                art.behavior = std::move(bundle->behavior);
                inferStage(trace, art, config);
                hit = true;
            }
        }
        if (!hit)
            runStages(trace, art, config, fw.bytes, out);
        out.inference = eval::inferenceOutcome(art, fw.spec, fw.truth);
        if (taint) {
            out.taint = trace.span("taint.outcome", [&] {
                return eval::taintOutcome(art, fw.spec, fw.truth,
                                          config.budgets.taintMs);
            });
        }
    }
    trace.finish();
    out.spans = std::move(trace.spans());
    return out;
}

/** One sample's scored result; scoring uses only the synth manifest. */
struct SampleResult
{
    bool agrees = false;
    std::uint64_t digest = 0;
    int firstItsRank = -1;
    std::size_t itsAlerts = 0;
    std::size_t itsBugs = 0;
    std::size_t customFns = 0;
    std::size_t distinctRows = 0;
    std::size_t functions = 0;
    std::uint64_t selectHits = 0;
    double ms = 0.0;
    double queueMs = 0.0;
    std::vector<fitsbench::Span> spans;
};

/** Did the sample end the way its planted failure mode says it must? */
bool
agrees(const synth::SampleSpec &spec, const Outcome &out)
{
    const eval::InferenceOutcome &inf = out.inference;
    if (inf.retried)
        return false;
    switch (spec.failure) {
      case FM::OpaqueEncoding:
      case FM::CorruptImage:
        return !inf.ok && inf.failureStage == FS::Unpack;
      case FM::NoNetworkBinary:
        return !inf.ok && inf.failureStage == FS::Select;
      case FM::None:
      case FM::StructOffset:
        break;
    }
    if (!inf.ok || inf.degraded)
        return false;
    return !out.taint || (out.taint->ok && !out.taint->degraded &&
                          !out.taint->retried);
}

class Hasher
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        bytes_.append(reinterpret_cast<const char *>(&value),
                      sizeof(value));
    }

    void add(const std::string &s)
    {
        add(s.size());
        bytes_ += s;
    }

    void
    add(const eval::EngineStats &stats,
        const std::vector<ir::Addr> &bugSites)
    {
        add(stats.alerts);
        add(stats.bugs);
        add(bugSites.size());
        for (const ir::Addr site : bugSites)
            add(site);
    }

    std::uint64_t value() const { return support::fnv1a(bytes_); }

  private:
    std::string bytes_;
};

/**
 * Digest of what a sample produced: outcome, the ranking (entries,
 * names and score bit patterns) and, for taint workloads, the alert
 * and bug-site record of all four Table-5 configurations.
 */
std::uint64_t
outcomeDigest(const Outcome &out)
{
    const eval::InferenceOutcome &inf = out.inference;
    Hasher h;
    h.add(inf.ok);
    h.add(inf.degraded);
    h.add(inf.failureStage);
    h.add(inf.firstItsRank);
    h.add(inf.ranking.size());
    for (const auto &r : inf.ranking) {
        h.add(r.entry);
        h.add(r.name);
        h.add(r.score);
    }
    if (out.taint) {
        const eval::TaintOutcome &t = *out.taint;
        h.add(t.ok);
        h.add(t.degraded);
        h.add(t.karonte, t.karonteBugs);
        h.add(t.karonteIts, t.karonteItsBugs);
        h.add(t.sta, t.staBugs);
        h.add(t.staIts, t.staItsBugs);
    }
    return h.value();
}

SampleResult
score(const synth::SampleSpec &spec, Outcome out, bool properties)
{
    SampleResult r;
    r.agrees = agrees(spec, out);
    r.digest = outcomeDigest(out);
    r.firstItsRank = out.inference.firstItsRank;
    if (out.taint) {
        r.itsAlerts =
            out.taint->karonteIts.alerts + out.taint->staIts.alerts;
        r.itsBugs = out.taint->karonteIts.bugs + out.taint->staIts.bugs;
    }
    r.functions = out.functions;
    r.selectHits = out.selectHits;
    if (properties && out.inference.ok) {
        const core::BehaviorRepr &repr = out.inference.behavior;
        std::set<ml::Vec> distinct;
        for (const analysis::FnId id : repr.customFns)
            distinct.insert(repr.records[id].bfv.toVector());
        r.customFns = repr.customFns.size();
        r.distinctRows = distinct.size();
    }
    r.spans = std::move(out.spans);
    return r;
}

struct Pass
{
    std::vector<SampleResult> samples;
    double wallMs = 0.0;
    cache::Stats cache;
    std::uint64_t staSteps = 0;
    std::uint64_t karontePhaseASteps = 0;
    std::uint64_t digest = 0;
    std::size_t disagreeing = 0;
    bool hygienic = true;
};

/**
 * One pass over the corpus with an empty memory tier. `traced` selects
 * the span-recording path; `properties` also records the workload's
 * input properties (custom-function counts, distinct BFV rows).
 */
Pass
runPass(const std::vector<synth::GeneratedFirmware> &corpus,
        const core::PipelineConfig &config, bool taint, std::size_t jobs,
        bool traced, bool properties)
{
    cache::clearMemory();
    cache::resetStats();
    obs::setEnabled(traced);
    if (traced)
        obs::Registry::instance().reset();

    eval::CorpusRunner::Config runnerConfig;
    runnerConfig.jobs = jobs;
    const eval::CorpusRunner runner(runnerConfig);

    Pass pass;
    const auto start = Clock::now();
    pass.samples = runner.map<SampleResult>(
        corpus.size(),
        [&](std::size_t i) {
            const auto begin = Clock::now();
            Outcome out =
                traced ? analyzeTraced(corpus[i], config, taint,
                                       static_cast<std::uint32_t>(i))
                       : analyzeProgram(corpus[i], config, taint);
            const auto end = Clock::now();
            SampleResult r = score(corpus[i].spec, std::move(out),
                                   properties);
            r.ms = msBetween(begin, end);
            r.queueMs = msBetween(start, begin);
            return r;
        },
        [](std::size_t i, const std::string &message) {
            std::fprintf(stderr, "fitsbench: sample %zu threw: %s\n", i,
                         message.c_str());
            return SampleResult{};
        });
    pass.wallMs = msBetween(start, Clock::now());
    pass.cache = cache::stats();
    if (traced) {
        const obs::Snapshot snap = obs::Registry::instance().snapshot();
        const auto counter = [&snap](const char *name) {
            const auto it = snap.counters.find(name);
            return it == snap.counters.end() ? 0 : it->second;
        };
        pass.staSteps = counter("taint.sta.fixpoint_steps");
        pass.karontePhaseASteps = counter("taint.karonte.phase_a_steps");
        obs::setEnabled(false);
    }

    Hasher h;
    for (const SampleResult &r : pass.samples) {
        h.add(r.digest);
        if (!r.agrees)
            ++pass.disagreeing;
    }
    pass.digest = h.value();
    return pass;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::vector<synth::GeneratedFirmware>
generate(const std::vector<synth::SampleSpec> &specs)
{
    std::vector<synth::GeneratedFirmware> corpus;
    corpus.reserve(specs.size());
    for (const auto &spec : specs)
        corpus.push_back(synth::generateFirmware(spec));
    return corpus;
}

void
configureCache(bool memory, const std::string &diskDir)
{
    cache::Options options;
    options.memory = memory;
    options.disk = !diskDir.empty();
    options.dir = diskDir;
    cache::configure(options);
}

/** Fill the disk tier the way a first `fits corpus` run does: every
 * sample analyzed once with the behavior cache on. */
void
fillDiskCache(const std::vector<synth::GeneratedFirmware> &corpus,
              const core::PipelineConfig &config, const std::string &dir)
{
    std::filesystem::remove_all(dir);
    configureCache(false, dir);
    const core::FitsPipeline pipeline(config);
    for (const auto &fw : corpus)
        (void)pipeline.analyze(fw.bytes);
    configureCache(true, dir);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value != "0";
        else if (flag == "--workdir")
            args.workdir = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (argc % 2 != 1 || args.workload.empty() || args.workdir.empty())
        throw std::invalid_argument(
            "usage: fitsbench --workload NAME --seed N --seconds S "
            "--trace 0|1 --workdir DIR");
    return args;
}

class JsonMetrics
{
  public:
    void
    set(const std::string &name, double value)
    {
        values_[name] = std::isfinite(value) ? value : 0.0;
    }

    std::string
    str() const
    {
        std::string out = "{";
        for (const auto &[name, value] : values_) {
            if (out.size() > 1)
                out += ", ";
            out += support::format("\"%s\": %.17g", name.c_str(), value);
        }
        return out + "}";
    }

  private:
    std::map<std::string, double> values_;
};

int
run(const Args &args)
{
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "FITS_", 5) == 0) {
            std::fprintf(stderr,
                         "fitsbench: refusing to run with %s set; the "
                         "benchmark configures FITS itself\n",
                         *env);
            return 2;
        }
    }
    const fitsbench::Workload w =
        fitsbench::makeWorkload(args.workload, args.seed);
    const std::string cacheDir = args.workdir + "/cache";
    std::filesystem::create_directories(args.workdir);
    obs::setEnabled(false);
    configureCache(true, "");

    core::PipelineConfig config;
    config.behaviorCache = w.warm;

    // Set-up, several times; setup_s is the median.
    std::vector<double> setupS;
    std::vector<synth::GeneratedFirmware> corpus;
    for (int k = 0; k < kSetups; ++k) {
        corpus.clear();
        corpus.shrink_to_fit();
        const auto begin = Clock::now();
        corpus = generate(w.specs);
        if (w.warm)
            fillDiskCache(corpus, config, cacheDir);
        setupS.push_back(msBetween(begin, Clock::now()) / 1e3);
    }
    std::size_t analyzable = 0;
    for (const auto &fw : corpus) {
        if (fw.spec.failure == FM::None ||
            fw.spec.failure == FM::StructOffset)
            ++analyzable;
    }
    const std::size_t n = corpus.size();

    // Timed window. With --trace 1, untraced and traced passes
    // alternate so the tracing overhead is measured under like load.
    const std::size_t minPlain = std::max<std::size_t>(
        2, (kMinSampleRuns + n - 1) / n);
    const std::size_t minTraced = args.trace ? 2 : 0;
    std::vector<Pass> plain;
    std::vector<Pass> traced;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    const auto windowEnd =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    while (plain.size() < minPlain || traced.size() < minTraced ||
           Clock::now() < windowEnd) {
        const bool tracedTurn =
            args.trace && traced.size() < plain.size();
        Pass pass = runPass(corpus, config, w.taint, w.jobs, tracedTurn,
                            false);
        // Cache hygiene: a cold pass never reads the disk tier; a warm
        // pass reads every analyzable sample from disk and hits nothing
        // in the (emptied) memory tier.
        pass.hygienic = w.warm ? pass.cache.diskHits == analyzable &&
                                     pass.cache.hits == 0
                               : pass.cache.diskHits == 0;
        if (!pass.hygienic) {
            std::fprintf(stderr,
                         "fitsbench: cache state broke the workload's "
                         "rule: hits=%llu disk_hits=%llu\n",
                         static_cast<unsigned long long>(pass.cache.hits),
                         static_cast<unsigned long long>(
                             pass.cache.diskHits));
        }
        attempted += n;
        failed += pass.hygienic ? pass.disagreeing : n;
        (tracedTurn ? traced : plain).push_back(std::move(pass));
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peakRssMib = static_cast<double>(usage.ru_maxrss) / 1024.0;

    // Reference pass: serial, traced, cold memory tier, no disk tier.
    // Its digest must equal every timed pass's, which ties the N-worker
    // to the 1-worker result, the traced to the untraced path, and the
    // warm to the cold path. It also records the input properties.
    configureCache(true, "");
    const Pass ref = runPass(corpus, config, w.taint, 1, true, true);
    std::filesystem::remove_all(cacheDir);

    for (const auto *passes : {&plain, &traced}) {
        for (const Pass &pass : *passes) {
            if (pass.digest != ref.digest) {
                std::fprintf(stderr,
                             "fitsbench: pass digest %016llx differs "
                             "from the serial reference %016llx\n",
                             static_cast<unsigned long long>(pass.digest),
                             static_cast<unsigned long long>(ref.digest));
                correct = false;
            }
        }
    }
    if (ref.disagreeing != 0)
        correct = false;

    // Quality, scored against the synth manifest. Failures are misses.
    std::size_t top1 = 0, top3 = 0, itsAlerts = 0, itsBugs = 0;
    for (const SampleResult &r : ref.samples) {
        top1 += r.firstItsRank == 1 ? 1 : 0;
        top3 += r.firstItsRank >= 1 && r.firstItsRank <= 3 ? 1 : 0;
        itsAlerts += r.itsAlerts;
        itsBugs += r.itsBugs;
    }
    std::fprintf(stderr,
                 "fitsbench: %s seed %llu: %zu samples, top1 %zu, top3 "
                 "%zu, its bugs %zu of %zu alerts, digest %016llx\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 n, top1, top3, itsBugs, itsAlerts,
                 static_cast<unsigned long long>(ref.digest));
    // The committed `fits corpus --taint` table at seed 0.
    if (w.name == "corpus-cold" && args.seed == 0 &&
        (top1 != 31 || top3 != 53 || itsBugs != 539 || itsAlerts != 786)) {
        std::fprintf(stderr, "fitsbench: seed-0 corpus no longer "
                             "reproduces the committed table\n");
        correct = false;
    }

    JsonMetrics m;
    // End-to-end, from the untraced passes that kept the cache rules.
    std::vector<double> passMs, sampleMs;
    for (const Pass &pass : plain) {
        if (!pass.hygienic)
            continue;
        passMs.push_back(pass.wallMs);
        for (const SampleResult &r : pass.samples)
            sampleMs.push_back(r.ms);
    }
    const double nd = static_cast<double>(n);
    m.set("samples_per_s", ratio(nd, median(passMs) / 1e3));
    m.set("sample_ms_p50", percentile(sampleMs, 0.5));
    m.set("sample_ms_p90", percentile(sampleMs, 0.9));
    m.set("peak_rss_mib", peakRssMib);
    m.set("setup_s", median(setupS));
    m.set("failed_frac",
          ratio(static_cast<double>(failed), static_cast<double>(attempted)));
    m.set("its_top1_frac", ratio(static_cast<double>(top1), nd));
    m.set("its_top3_frac", ratio(static_cast<double>(top3), nd));
    m.set("bugs_its", static_cast<double>(itsBugs));
    m.set("fp_frac_its", ratio(static_cast<double>(itsAlerts - itsBugs),
                               static_cast<double>(itsAlerts)));

    // Input properties, from the reference pass.
    double customSum = 0.0, customMax = 0.0, rows = 0.0, distinct = 0.0;
    double pairs = 0.0, libHits = 0.0;
    std::size_t okSamples = 0;
    for (const SampleResult &r : ref.samples) {
        const auto c = static_cast<double>(r.customFns);
        if (r.customFns > 0)
            ++okSamples;
        customSum += c;
        customMax = std::max(customMax, c);
        rows += c;
        distinct += static_cast<double>(r.distinctRows);
        pairs += c * c;
        libHits += static_cast<double>(r.selectHits);
    }
    m.set("workload.samples", nd);
    m.set("workload.custom_fns_mean",
          ratio(customSum, static_cast<double>(okSamples)));
    m.set("workload.custom_fns_max", customMax);
    m.set("workload.distinct_bfv_frac", ratio(distinct, rows));
    m.set("workload.lib_image_hits", libHits);
    m.set("mlkit.dbscan.rows", rows);
    m.set("mlkit.dbscan.distinct_rows", distinct);
    m.set("mlkit.dbscan.pairs", pairs);

    if (args.trace) {
        // Per-layer figures: per traced pass, then the median.
        static const char *const kLayers[] = {
            "firmware.unpack", "firmware.select", "analysis.link",
            "analysis.ucse",   "analysis.callgraph", "core.bfv",
            "core.infer",      "cache.fetch",      "taint.outcome"};
        std::map<std::string, std::vector<double>> perPass;
        std::vector<double> queueMs;
        std::vector<fitsbench::Span> allSpans;
        for (const Pass &pass : traced) {
            std::map<std::string, double> self;
            std::map<std::string, double> calls;
            double busyMs = 0.0, functions = 0.0;
            for (const SampleResult &r : pass.samples) {
                fitsbench::addSelfTimes(r.spans, self);
                for (const auto &span : r.spans)
                    calls[span.name] += 1.0;
                busyMs += r.ms;
                functions += static_cast<double>(r.functions);
                queueMs.push_back(r.queueMs);
                allSpans.insert(allSpans.end(), r.spans.begin(),
                                r.spans.end());
            }
            double selfTotal = 0.0;
            for (const auto &[name, ms] : self)
                selfTotal += ms;
            for (const char *layer : kLayers) {
                const std::string name = layer;
                perPass[name + ".self_ms"].push_back(self[name]);
                perPass["share." + name].push_back(
                    ratio(self[name], selfTotal));
            }
            perPass["trace.unattributed_ms"].push_back(self["sample"]);
            perPass["share.unattributed"].push_back(
                ratio(self["sample"], selfTotal));
            perPass["firmware.unpack.calls"].push_back(
                calls["firmware.unpack"]);
            perPass["firmware.select.calls"].push_back(
                calls["firmware.select"]);
            perPass["analysis.functions"].push_back(functions);
            perPass["taint.sta.fixpoint_steps"].push_back(
                static_cast<double>(pass.staSteps));
            perPass["taint.karonte.phase_a_steps"].push_back(
                static_cast<double>(pass.karontePhaseASteps));
            const cache::Stats &c = pass.cache;
            perPass["cache.hits"].push_back(static_cast<double>(c.hits));
            perPass["cache.misses"].push_back(static_cast<double>(c.misses));
            perPass["cache.disk_hits"].push_back(
                static_cast<double>(c.diskHits));
            perPass["cache.disk_misses"].push_back(
                static_cast<double>(c.diskMisses));
            perPass["cache.hit_frac"].push_back(
                ratio(static_cast<double>(c.hits),
                      static_cast<double>(c.hits + c.misses)));
            perPass["cache.mem_mib"].push_back(
                static_cast<double>(c.bytes) / (1024.0 * 1024.0));
            const double jobs = static_cast<double>(w.jobs);
            perPass["eval.worker_busy_frac"].push_back(
                ratio(busyMs, jobs * pass.wallMs));
            perPass["eval.tail_idle_ms"].push_back(pass.wallMs -
                                                   busyMs / jobs);
            perPass["trace.pass_ms"].push_back(pass.wallMs);
        }
        for (const auto &[name, values] : perPass)
            m.set(name, median(values));
        m.set("eval.queue_wait_ms_p50", percentile(queueMs, 0.5));
        m.set("eval.queue_wait_ms_p90", percentile(queueMs, 0.9));
        std::vector<double> tracedMs;
        for (const Pass &pass : traced)
            tracedMs.push_back(pass.wallMs);
        const double overheadMs = median(tracedMs) - median(passMs);
        m.set("trace.overhead_ms", overheadMs);
        m.set("trace.overhead_frac", ratio(overheadMs, median(passMs)));
        const std::string path = args.workdir + "/trace-" + w.name + ".json";
        if (!fitsbench::writeChromeTrace(path, allSpans))
            std::fprintf(stderr, "fitsbench: could not write %s\n",
                         path.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                m.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fitsbench: %s\n", e.what());
        return 2;
    }
}
