/** @file Property-style tests: parameterized sweeps over seeds
 * asserting the invariants every generated artifact and every analysis
 * must uphold, regardless of the random draw. */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/program_analysis.hh"
#include "binary/fbin.hh"
#include "core/behavior.hh"
#include "core/infer.hh"
#include "eval/harness.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "ir/validate.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits {
namespace {

synth::SampleSpec
seededSpec(std::uint64_t seed)
{
    // Rotate vendor profiles so the sweep covers all generator paths.
    const synth::VendorProfile profiles[] = {
        synth::netgearProfile(), synth::dlinkProfile(),
        synth::tplinkProfile(), synth::tendaProfile(),
        synth::ciscoProfile()};
    synth::SampleSpec spec;
    spec.profile = profiles[seed % 5];
    spec.profile.minCustomFns = 120;
    spec.profile.maxCustomFns = 180;
    spec.product = spec.profile.series.front();
    spec.version = "V1";
    spec.name = spec.product + "-V1";
    spec.seed = 0xbadcafe000ULL + seed * 0x9e3779b9ULL;
    return spec;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, GeneratedProgramsValidate)
{
    const auto result = synth::generateHttpd(seededSpec(GetParam()));
    const auto problems = ir::validateProgram(result.image.program);
    ASSERT_TRUE(problems.empty()) << problems.front();
}

TEST_P(SeedSweep, FbinRoundTripIsIdentity)
{
    const auto result = synth::generateHttpd(seededSpec(GetParam()));
    const auto bytes = bin::writeBinary(result.image);
    auto loaded = bin::loadBinary(bytes);
    ASSERT_TRUE(loaded) << loaded.errorMessage();
    EXPECT_EQ(bin::writeBinary(loaded.value()), bytes);
}

TEST_P(SeedSweep, FirmwarePackUnpackPreservesFiles)
{
    const auto fw = synth::generateFirmware(seededSpec(GetParam()));
    auto unpacked = fw::unpackFirmware(fw.bytes);
    ASSERT_TRUE(unpacked) << unpacked.errorMessage();
    // All generated file paths present with identical bytes.
    EXPECT_GE(unpacked.value().filesystem.size(), 4u);
    const auto *libc =
        unpacked.value().filesystem.findByBasename("libc.so");
    ASSERT_NE(libc, nullptr);
    EXPECT_FALSE(libc->bytes.empty());
}

TEST_P(SeedSweep, InferencePipelineNeverCrashesAndRanksDeterministically)
{
    const auto fw = synth::generateFirmware(seededSpec(GetParam()));
    const auto a = eval::runInference(fw);
    const auto b = eval::runInference(fw);
    ASSERT_EQ(a.ok, b.ok);
    if (!a.ok)
        return;
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t i = 0; i < a.ranking.size(); ++i)
        EXPECT_EQ(a.ranking[i].entry, b.ranking[i].entry);
}

TEST_P(SeedSweep, BfvInvariants)
{
    const auto fw = synth::generateFirmware(seededSpec(GetParam()));
    const auto outcome = eval::runInference(fw);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    for (const auto &rec : outcome.behavior.records) {
        const core::Bfv &bfv = rec.bfv;
        EXPECT_GE(bfv.numBlocks, 1.0);
        EXPECT_GE(bfv.numCallers, 0.0);
        EXPECT_GE(bfv.numParams, 0.0);
        EXPECT_LE(bfv.numParams, 4.0);
        EXPECT_LE(bfv.numAnchorCalls, bfv.numLibCalls + 0.5)
            << "anchor calls are library calls";
        if (bfv.paramsControlLoop) {
            EXPECT_TRUE(bfv.hasLoop);
        }
        if (bfv.numDistinctStrings > 0) {
            EXPECT_TRUE(bfv.argsHaveStrings);
        }
        if (bfv.argsHaveStrings) {
            EXPECT_GE(bfv.numDistinctStrings, 1.0);
        }
        if (bfv.paramsToAnchor) {
            EXPECT_GE(bfv.numAnchorCalls, 1.0);
        }
    }
}

TEST_P(SeedSweep, TaintEngineInvariants)
{
    const auto fw = synth::generateFirmware(seededSpec(GetParam()));
    const auto outcome = eval::runTaint(fw);
    ASSERT_TRUE(outcome.ok) << outcome.error;

    auto contains = [](const std::vector<ir::Addr> &super,
                       const std::vector<ir::Addr> &sub) {
        return std::all_of(sub.begin(), sub.end(), [&](ir::Addr a) {
            return std::find(super.begin(), super.end(), a) !=
                   super.end();
        });
    };
    // ITS-augmented bug sets are supersets (the paper's claim, and the
    // budget-split design guarantee).
    EXPECT_TRUE(contains(outcome.karonteItsBugs,
                         outcome.karonteBugs));
    EXPECT_TRUE(contains(outcome.staItsBugs, outcome.staBugs));
    // Bugs never exceed alerts.
    for (const auto *stats :
         {&outcome.karonte, &outcome.karonteIts, &outcome.sta,
          &outcome.staIts}) {
        EXPECT_LE(stats->bugs, stats->alerts);
    }
}

TEST_P(SeedSweep, AlertsLandOnPlantedSinkSites)
{
    const auto fw = synth::generateFirmware(seededSpec(GetParam()));
    auto unpacked = fw::unpackFirmware(fw.bytes);
    ASSERT_TRUE(unpacked);
    auto target =
        fw::selectAnalysisTarget(unpacked.value().filesystem);
    ASSERT_TRUE(target);
    const analysis::LinkedProgram linked(*target.value().main,
                                         target.value().libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);
    const taint::StaEngine sta;
    const auto report =
        sta.run(pa, taint::classicalTaintSources());
    for (const auto &alert : report.alerts) {
        EXPECT_NE(fw.truth.siteAt(alert.sinkSite), nullptr)
            << "alert outside the planted sink sites at "
            << support::hex(alert.sinkSite);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---- DBSCAN properties over random data ------------------------------

class DbscanSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DbscanSweep, LabelsAreWellFormed)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
    ml::Matrix points;
    const std::size_t n = 20 + rng.index(60);
    for (std::size_t i = 0; i < n; ++i) {
        ml::Vec row(4);
        for (auto &v : row)
            v = rng.uniformReal(0, 2);
        points.push_back(std::move(row));
    }
    const ml::DbscanConfig config{0.4, 3, ml::Metric::Euclidean};
    const auto result = ml::dbscan(points, config);
    ASSERT_EQ(result.labels.size(), n);
    for (int label : result.labels) {
        EXPECT_GE(label, -1);
        EXPECT_LT(label, result.numClusters);
    }
    // Each non-empty cluster id below numClusters is used.
    for (int c = 0; c < result.numClusters; ++c)
        EXPECT_FALSE(result.members(c).empty());
    // Determinism.
    const auto again = ml::dbscan(points, config);
    EXPECT_EQ(result.labels, again.labels);
}

INSTANTIATE_TEST_SUITE_P(Rounds, DbscanSweep,
                         ::testing::Range(0, 8));

// ---- backtracker robustness over random programs ---------------------

class BacktrackSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BacktrackSweep, NeverCrashesOnRandomCallSites)
{
    // Random but valid functions: resolveArg must terminate and stay
    // within bounds for every call site and argument index.
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) + 0x55);
    const auto result = synth::generateHttpd(seededSpec(
        static_cast<std::uint64_t>(GetParam())));
    const bin::BinaryImage &image = result.image;

    std::size_t checked = 0;
    for (const auto &fn : image.program.functions()) {
        if (checked > 300)
            break;
        const analysis::Cfg cfg = analysis::Cfg::build(fn);
        const auto consts =
            analysis::TmpConstMap::compute(fn, &image);
        const analysis::ArgBacktracker tracker(image, fn, cfg,
                                               consts);
        for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
            for (std::size_t si = 0;
                 si < fn.blocks[bi].stmts.size(); ++si) {
                if (fn.blocks[bi].stmts[si].kind !=
                    ir::StmtKind::Call) {
                    continue;
                }
                ++checked;
                const int arg =
                    static_cast<int>(rng.uniformInt(0, 3));
                for (std::uint64_t v :
                     tracker.resolveArg(bi, si, arg)) {
                    (void)tracker.classifyString(v);
                }
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Rounds, BacktrackSweep,
                         ::testing::Range(0, 6));

} // namespace
} // namespace fits
