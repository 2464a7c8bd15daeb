/**
 * @file
 * Micro-benchmarks (google-benchmark) of the analysis primitives the
 * FITS pipeline is built on: FBIN decode/lift, UCSE exploration, the
 * per-function analysis chain (BM_FunctionAnalysis: UCSE, CFG, loops,
 * constants, parameters, reaching definitions), reaching definitions,
 * Table-2 backtracking, DBSCAN, and Eq.-2 scoring. These are the
 * ingredients whose costs compose into the Figure 4 curves. BM_StaRun
 * and BM_KaronteRun time the two taint engines on a standard-corpus
 * sample. BM_BundleDecode and BM_Hash64 time the warm behavior-cache
 * hit path instead: bundle decode and the disk-entry checksum.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "analysis/program_analysis.hh"
#include "obs/bench_record.hh"
#include "obs/metrics.hh"
#include "binary/fbin.hh"
#include "core/behavior.hh"
#include "core/behavior_io.hh"
#include "core/infer.hh"
#include "core/pipeline.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "mlkit/dbscan.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "synth/profiles.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace {

using namespace fits;

/** One mid-size sample shared by all micro-benchmarks. */
const synth::GeneratedFirmware &
sample()
{
    static const synth::GeneratedFirmware fw = [] {
        synth::SampleSpec spec;
        spec.profile = synth::tendaProfile();
        spec.profile.minCustomFns = 600;
        spec.profile.maxCustomFns = 700;
        spec.product = "AC9";
        spec.version = "V1";
        spec.seed = 0xbe9c;
        return synth::generateFirmware(spec);
    }();
    return fw;
}

const fw::AnalysisTarget &
target()
{
    static const fw::AnalysisTarget t = [] {
        auto unpacked = fw::unpackFirmware(sample().bytes);
        return fw::selectAnalysisTarget(
                   unpacked.value().filesystem)
            .take();
    }();
    return t;
}

void
BM_FirmwareUnpack(benchmark::State &state)
{
    for (auto _ : state) {
        auto unpacked = fw::unpackFirmware(sample().bytes);
        benchmark::DoNotOptimize(unpacked);
    }
}
BENCHMARK(BM_FirmwareUnpack);

void
BM_FbinLoad(benchmark::State &state)
{
    auto unpacked = fw::unpackFirmware(sample().bytes);
    const fw::FileEntry *entry = nullptr;
    for (const auto &f : unpacked.value().filesystem.files()) {
        if (f.type == fw::FileType::Executable &&
            f.path != "bin/busybox") {
            entry = &f;
        }
    }
    for (auto _ : state) {
        auto image = bin::loadBinary(entry->bytes);
        benchmark::DoNotOptimize(image);
    }
}
BENCHMARK(BM_FbinLoad);

void
BM_UcsePerFunction(benchmark::State &state)
{
    const auto &t = target();
    const analysis::UcseExplorer explorer(*t.main);
    std::size_t i = 0;
    const auto &fns = t.main->program.functions();
    for (auto _ : state) {
        auto result = explorer.explore(fns[i++ % fns.size()]);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_UcsePerFunction);

void
BM_FunctionAnalysis(benchmark::State &state)
{
    const auto &t = target();
    std::size_t i = 0;
    const auto &fns = t.main->program.functions();
    for (auto _ : state) {
        auto fa = analysis::FunctionAnalysis::analyze(
            *t.main, fns[i++ % fns.size()]);
        benchmark::DoNotOptimize(fa);
    }
}
BENCHMARK(BM_FunctionAnalysis);

void
BM_WholeProgramAnalysis(benchmark::State &state)
{
    const auto &t = target();
    for (auto _ : state) {
        const analysis::LinkedProgram linked(*t.main, t.libraries);
        auto pa = analysis::ProgramAnalysis::analyze(linked);
        benchmark::DoNotOptimize(pa);
    }
}
BENCHMARK(BM_WholeProgramAnalysis);

void
BM_BehaviorExtraction(benchmark::State &state)
{
    const auto &t = target();
    const analysis::LinkedProgram linked(*t.main, t.libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const core::BehaviorAnalyzer analyzer;
    for (auto _ : state) {
        auto repr = analyzer.analyze(pa);
        benchmark::DoNotOptimize(repr);
    }
}
BENCHMARK(BM_BehaviorExtraction);

void
BM_InferIts(benchmark::State &state)
{
    const auto &t = target();
    const analysis::LinkedProgram linked(*t.main, t.libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const core::BehaviorAnalyzer analyzer;
    const auto repr = analyzer.analyze(pa);
    for (auto _ : state) {
        auto result = core::inferIts(repr);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_InferIts);

void
BM_ReachingDefs(benchmark::State &state)
{
    const auto &t = target();
    // Everything upstream of the reach-defs kernel (UCSE for resolved
    // jumps, CFG, constants, parameter count) is computed once; the
    // timed loop re-runs only the worklist fixpoint.
    struct Prep
    {
        const ir::Function *fn;
        analysis::Cfg cfg;
        analysis::TmpConstMap consts;
        int numParams;
    };
    std::vector<Prep> preps;
    for (const auto &fn : t.main->program.functions()) {
        auto fa = analysis::FunctionAnalysis::analyze(*t.main, fn);
        preps.push_back({&fn, std::move(fa.cfg),
                         std::move(fa.consts), fa.params.count});
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const Prep &p = preps[i++ % preps.size()];
        auto flow = analysis::ReachingDefs::analyze(
            p.cfg, *p.fn, p.consts, p.numParams);
        benchmark::DoNotOptimize(flow);
    }
}
BENCHMARK(BM_ReachingDefs);

void
BM_Dbscan(benchmark::State &state)
{
    support::Rng rng(7);
    ml::Matrix points;
    for (int i = 0; i < 800; ++i) {
        ml::Vec row(11);
        for (auto &v : row)
            v = rng.uniformReal();
        points.push_back(std::move(row));
    }
    const ml::DbscanConfig config{0.35, 3, ml::Metric::Euclidean};
    for (auto _ : state) {
        auto clusters = ml::dbscan(points, config);
        benchmark::DoNotOptimize(clusters);
    }
}
BENCHMARK(BM_Dbscan);

/** Corpus-shaped clustering input: ~2,000 scaled BFV-like rows of
 * which ~3% are distinct, with a few rows (trivial helpers) repeated
 * far more often than the rest. BM_Dbscan above stays all-distinct so
 * the full quadratic scan keeps its own guard. */
void
BM_DbscanDuplicates(benchmark::State &state)
{
    support::Rng rng(11);
    ml::Matrix distinct;
    for (int i = 0; i < 60; ++i) {
        ml::Vec row(11);
        for (auto &v : row)
            v = static_cast<double>(rng.uniformInt(0, 4)) / 4.0;
        distinct.push_back(std::move(row));
    }
    ml::Matrix points = distinct;
    while (points.size() < 2000) {
        const double u = rng.uniformReal();
        points.push_back(distinct[static_cast<std::size_t>(
            u * u * u * static_cast<double>(distinct.size()))]);
    }
    rng.shuffle(points);
    const ml::DbscanConfig config{0.35, 3, ml::Metric::Euclidean};
    for (auto _ : state) {
        auto clusters = ml::dbscan(points, config);
        benchmark::DoNotOptimize(clusters);
    }
}
BENCHMARK(BM_DbscanDuplicates);

/** The first standard-corpus sample with an ITS, analyzed once, and
 * its two taint source sets: the classical sources, and those plus the
 * ground-truth ITSs. */
struct StaSample
{
    core::PipelineArtifact artifact;
    std::vector<taint::TaintSource> cts;
    std::vector<taint::TaintSource> ctsPlusIts;
};

const StaSample &
staSample()
{
    static const StaSample s = [] {
        const core::FitsPipeline pipeline;
        for (const auto &spec : synth::standardDataset()) {
            const auto fw = synth::generateFirmware(spec);
            if (!fw.truth.hasIts || fw.truth.itsFunctions.empty())
                continue;
            StaSample sample{pipeline.analyze(fw.bytes),
                             taint::classicalTaintSources(), {}};
            if (!sample.artifact.hasAnalysis())
                continue;
            sample.ctsPlusIts = sample.cts;
            for (ir::Addr entry : fw.truth.itsFunctions)
                sample.ctsPlusIts.push_back(
                    taint::TaintSource::its(entry, support::hex(entry)));
            return sample;
        }
        std::abort(); // the standard corpus always has such a sample
    }();
    return s;
}

/** STA over the sample with both source sets, as the corpus
 * evaluation runs it: one CTS+ITS run, and the CTS report derived
 * from it. */
void
BM_StaRun(benchmark::State &state)
{
    const StaSample &s = staSample();
    const taint::StaEngine sta;
    for (auto _ : state) {
        auto its = sta.run(*s.artifact.analysis, s.ctsPlusIts);
        auto cts = sta.prefixReport(*s.artifact.analysis, s.ctsPlusIts,
                                    s.cts.size(), its);
        benchmark::DoNotOptimize(cts);
        benchmark::DoNotOptimize(its);
    }
}
BENCHMARK(BM_StaRun);

/** Karonte over the sample with both source sets, as the corpus
 * evaluation runs it: two runs, since ITS roots change which paths
 * are explored. */
void
BM_KaronteRun(benchmark::State &state)
{
    const StaSample &s = staSample();
    const taint::KaronteEngine karonte;
    for (auto _ : state) {
        auto cts = karonte.run(*s.artifact.analysis, s.cts);
        auto its = karonte.run(*s.artifact.analysis, s.ctsPlusIts);
        benchmark::DoNotOptimize(cts);
        benchmark::DoNotOptimize(its);
    }
}
BENCHMARK(BM_KaronteRun);

/** Decode of the shared sample's encoded behavior bundle: the work a
 * warm behavior-cache hit does after reading and checksumming. */
void
BM_BundleDecode(benchmark::State &state)
{
    const auto &t = target();
    const analysis::LinkedProgram linked(*t.main, t.libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    core::BehaviorBundle bundle;
    bundle.binaryName = t.main->name;
    bundle.behavior = core::BehaviorAnalyzer().analyze(pa);
    const std::string payload = core::encodeBehaviorBundle(bundle);
    for (auto _ : state) {
        auto decoded = core::decodeBehaviorBundle(payload);
        benchmark::DoNotOptimize(decoded);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_BundleDecode);

/** The disk-cache payload checksum over 1 MiB of seeded bytes. */
void
BM_Hash64(benchmark::State &state)
{
    support::Rng rng(13);
    std::string bytes(std::size_t{1} << 20, '\0');
    for (auto &c : bytes)
        c = static_cast<char>(rng.next() & 0xff);
    for (auto _ : state) {
        auto h = support::hash64(bytes);
        benchmark::DoNotOptimize(h);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Hash64);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    const std::size_t run = benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const auto &t = target();
    const fits::analysis::LinkedProgram linked(*t.main, t.libraries);
    const auto pa = fits::analysis::ProgramAnalysis::analyze(linked);
    const fits::core::BehaviorAnalyzer analyzer;
    const auto repr = analyzer.analyze(pa);

    // Spans too short to time once (kernel.rank takes microseconds)
    // are timed over many calls and recorded as the per-call mean.
    constexpr int kRepetitions = 1000;
    fits::obs::Registry::instance().reset();
    fits::obs::setEnabled(true);
    for (int i = 0; i < kRepetitions; ++i)
        benchmark::DoNotOptimize(fits::core::inferIts(repr));
    // 200 taint/sta spans (CTS+ITS runs; the CTS report is derived
    // from each) and 200 taint/karonte spans (one CTS and one CTS+ITS
    // run per repetition).
    const StaSample &taintSample = staSample();
    const auto &taintPa = *taintSample.artifact.analysis;
    const fits::taint::StaEngine staEngine;
    const fits::taint::KaronteEngine karonteEngine;
    for (int i = 0; i < kRepetitions / 5; ++i) {
        const auto full = staEngine.run(taintPa, taintSample.ctsPlusIts);
        benchmark::DoNotOptimize(staEngine.prefixReport(
            taintPa, taintSample.ctsPlusIts, taintSample.cts.size(), full));
    }
    for (int i = 0; i < kRepetitions / 10; ++i) {
        benchmark::DoNotOptimize(
            karonteEngine.run(taintPa, taintSample.cts));
        benchmark::DoNotOptimize(
            karonteEngine.run(taintPa, taintSample.ctsPlusIts));
    }
    fits::obs::setEnabled(false);
    const auto repeated = fits::obs::Registry::instance().snapshot();

    // Main-binary analysis of the same corpus sample: every main
    // function through FunctionAnalysis::analyze, untraced, as the
    // mean of 200 runs.
    constexpr int kAnalysisRuns = kRepetitions / 5;
    double analysisMs = 0.0;
    for (int i = 0; i < kAnalysisRuns; ++i) {
        const auto start = std::chrono::steady_clock::now();
        for (fits::analysis::FnId id = 0; id < taintPa.fns.size(); ++id) {
            if (!taintPa.linked->isMainFn(id))
                continue;
            const auto &fa = taintPa.fns[id];
            benchmark::DoNotOptimize(
                fits::analysis::FunctionAnalysis::analyze(*fa.image,
                                                          *fa.fn));
        }
        analysisMs += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    }

    // One obs-instrumented pass over the shared sample captures the
    // hot-kernel spans (kernel.reachdef from whole-program analysis,
    // kernel.cluster from inference) so BENCH_micro.json records their
    // absolute cost alongside the benchmark rates. The record's
    // metrics block is this pass's registry.
    fits::obs::Registry::instance().reset();
    fits::obs::setEnabled(true);
    {
        const fits::analysis::LinkedProgram pass(*t.main, t.libraries);
        const auto passPa = fits::analysis::ProgramAnalysis::analyze(pass);
        benchmark::DoNotOptimize(
            fits::core::inferIts(analyzer.analyze(passPa)));
    }
    fits::obs::setEnabled(false);
    const auto snapshot = fits::obs::Registry::instance().snapshot();

    fits::obs::BenchRecord record("micro");
    record.add("benchmarks_run", static_cast<double>(run));
    // Spans nest under their parent ("cluster/kernel.cluster"), so
    // match the leaf name anywhere in the hierarchy.
    const auto findSpan = [](const fits::obs::Snapshot &snap,
                             const std::string &span)
        -> const fits::obs::Snapshot::TimerView * {
        for (const auto &[name, view] : snap.timers) {
            if (name == span ||
                (name.size() > span.size() &&
                 name.compare(name.size() - span.size() - 1,
                              std::string::npos, "/" + span) == 0))
                return &view;
        }
        return nullptr;
    };
    const auto addKernel = [&](const std::string &key,
                               const std::string &span) {
        if (const auto *view = findSpan(snapshot, span)) {
            record.add(key + "_ms", view->totalMs);
            record.add(key + "_calls", static_cast<double>(view->count));
        }
    };
    const auto addKernelMean = [&](const std::string &key,
                                   const std::string &span) {
        if (const auto *view = findSpan(repeated, span)) {
            record.add(key + "_ms",
                       view->totalMs / static_cast<double>(view->count));
            record.add(key + "_calls", static_cast<double>(view->count));
        }
    };
    addKernel("kernel_reachdef", "kernel.reachdef");
    addKernel("kernel_cluster", "kernel.cluster");
    addKernelMean("kernel_rank", "kernel.rank");
    addKernelMean("kernel_sta", "taint/sta");
    addKernelMean("kernel_karonte", "taint/karonte");
    record.add("kernel_function_analysis_ms", analysisMs / kAnalysisRuns);
    record.add("kernel_function_analysis_calls", kAnalysisRuns);
    // Work counts of the clustering kernel. Unlike the span times they
    // depend only on the input, not on the machine.
    for (const char *count : {"rows", "distinct_rows", "distance_evals"}) {
        const auto it = snapshot.counters.find(
            std::string("kernel.cluster.") + count);
        record.add(std::string("kernel_cluster_") + count,
                   it == snapshot.counters.end()
                       ? 0.0
                       : static_cast<double>(it->second));
    }
    record.write();
    return 0;
}
