/** @file Tests for the single-image report layer behind `fits rank` and
 * `fits taint`: the taint report on FitsPipeline::analyze renders the
 * same text as the direct unpack → select → ProgramAnalysis → engine
 * chain, stage 1 runs once per report, and partial results carry
 * their issues. */

#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis/program_analysis.hh"
#include "chaos/chaos.hh"
#include "eval/report.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits::eval {
namespace {

class ReportTest : public ::testing::Test
{
  protected:
    void SetUp() override { chaos::reset(); }
    void TearDown() override { chaos::reset(); }
};

/** `fits taint` computed without the pipeline: unpack, select, analyze
 * the linked program, run one engine with default settings, render. */
TextReport
referenceTaintReport(const std::vector<std::uint8_t> &bytes,
                     const std::string &engine,
                     const std::vector<std::uint64_t> &itsAddrs)
{
    TextReport report;
    auto unpacked = fw::unpackFirmware(bytes);
    if (!unpacked) {
        report.error = support::format("unpack failed: %s\n",
                                       unpacked.errorMessage().c_str());
        return report;
    }
    auto target = fw::selectAnalysisTarget(unpacked.value().filesystem);
    if (!target) {
        report.error = support::format("selection failed: %s\n",
                                       target.errorMessage().c_str());
        return report;
    }
    const analysis::LinkedProgram linked(*target.value().main,
                                         target.value().libraries);
    const auto pa = analysis::ProgramAnalysis::analyze(linked);

    auto sources = taint::classicalTaintSources();
    for (std::uint64_t addr : itsAddrs)
        sources.push_back(
            taint::TaintSource::its(addr, support::hex(addr)));
    const taint::TaintReport taintReport =
        engine == "sta" ? taint::StaEngine().run(pa, sources)
                        : taint::KaronteEngine().run(pa, sources);
    const auto alerts = itsAddrs.empty() ? taintReport.alerts
                                         : taintReport.filteredAlerts();

    report.ok = true;
    report.text = support::format(
        "%s: %zu alerts in %.1f ms (%zu sources, %zu of "
        "them ITSs%s)\n\n",
        engine.c_str(), alerts.size(), taintReport.analysisMs,
        sources.size(), itsAddrs.size(),
        itsAddrs.empty() ? "" : "; system-data filtered");
    for (const auto &alert : alerts) {
        report.text += support::format(
            "  %-8s at %-10s in fn %-10s [%s]\n",
            alert.sinkName.c_str(), support::hex(alert.sinkSite).c_str(),
            support::hex(alert.inFunction).c_str(),
            taint::vulnClassName(alert.vclass));
    }
    return report;
}

/** The image `fits gen --vendor Tenda --seed 77` writes. */
const synth::GeneratedFirmware &
tendaSample()
{
    static const synth::GeneratedFirmware fw = [] {
        synth::SampleSpec spec;
        spec.profile = synth::tendaProfile();
        spec.product = spec.profile.series.front();
        spec.version = "V1.0.77";
        spec.name = spec.product + "-" + spec.version;
        spec.seed = 77;
        return synth::generateFirmware(spec);
    }();
    return fw;
}

/** `text` with its one wall-clock field replaced by a placeholder. */
std::string
maskMs(const std::string &text)
{
    static const std::regex ms(" in [0-9]+\\.[0-9] ms");
    return std::regex_replace(text, ms, " in <t> ms");
}

/** One analyzable sample per vendor plus every pre-processing failure
 * of the standard dataset. */
std::vector<synth::GeneratedFirmware>
reportSamples()
{
    std::vector<synth::GeneratedFirmware> samples;
    std::set<std::string> vendors;
    for (const auto &spec : synth::standardDataset()) {
        if (spec.failure == synth::SampleSpec::FailureMode::None &&
            !vendors.insert(spec.profile.vendor).second)
            continue;
        samples.push_back(synth::generateFirmware(spec));
    }
    return samples;
}

TEST_F(ReportTest, TaintReportMatchesDirectAnalysis)
{
    int analyzable = 0;
    int failing = 0;
    for (const auto &fw : reportSamples()) {
        std::vector<std::uint64_t> its;
        if (!fw.truth.itsFunctions.empty())
            its.push_back(fw.truth.itsFunctions.front());
        for (const std::string engine : {"sta", "karonte"}) {
            for (const auto &addrs :
                 {std::vector<std::uint64_t>{}, its}) {
                const auto want =
                    referenceTaintReport(fw.bytes, engine, addrs);
                const auto got = runTaintReport(fw.bytes, engine, addrs);
                const std::string what = fw.spec.name + " " + engine +
                                         " its=" +
                                         std::to_string(addrs.size());
                ASSERT_EQ(got.ok, want.ok) << what;
                EXPECT_EQ(got.error, want.error) << what;
                EXPECT_EQ(maskMs(got.text), maskMs(want.text)) << what;
                EXPECT_FALSE(got.degraded) << what;
                (want.ok ? analyzable : failing) += 1;
            }
        }
    }
    EXPECT_GE(analyzable, 4 * 4);
    EXPECT_GE(failing, 4);
}

TEST_F(ReportTest, TaintReportSelectsOnce)
{
    ASSERT_TRUE(chaos::configure("select.binary@0"));
    const auto report =
        runTaintReport(tendaSample().bytes, "sta", {});
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(chaos::hitCount("select.binary"), 1u);
    EXPECT_EQ(chaos::fireCount("select.binary"), 0u);
}

TEST_F(ReportTest, TaintReportCarriesMissingLibraryIssues)
{
    // Every dependency lift fails: the engine still runs on the main
    // binary, and the report says why it is partial.
    ASSERT_TRUE(chaos::configure("select.library"));
    const auto report =
        runTaintReport(tendaSample().bytes, "karonte", {});
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_TRUE(report.degraded);
    ASSERT_FALSE(report.issues.empty());
    const std::string line = renderDegraded("x.fwimg", report.issues);
    EXPECT_EQ(line.rfind("sample degraded: x.fwimg: ", 0), 0u) << line;
    EXPECT_NE(line.find("library did not lift"), std::string::npos)
        << line;
}

TEST_F(ReportTest, RankReportListsGroundTruthInTopThree)
{
    const auto &fw = tendaSample();
    const auto report = runRankReport(fw.bytes, 3, false);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_FALSE(report.degraded);
    EXPECT_EQ(report.text.rfind("analyzed ", 0), 0u) << report.text;
    ASSERT_FALSE(fw.truth.itsFunctions.empty());
    EXPECT_NE(report.text.find(
                  support::hex(fw.truth.itsFunctions.front())),
              std::string::npos)
        << report.text;
    EXPECT_EQ(report.text.find("#4"), std::string::npos) << report.text;
}

TEST_F(ReportTest, FailuresNameTheirStage)
{
    const std::vector<std::uint8_t> garbage(64, 0x5a);
    const auto taint = runTaintReport(garbage, "sta", {});
    EXPECT_FALSE(taint.ok);
    EXPECT_EQ(taint.error.rfind("unpack failed: ", 0), 0u) << taint.error;
    const auto rank = runRankReport(garbage, 3, false);
    EXPECT_FALSE(rank.ok);
    EXPECT_EQ(rank.error.rfind("pipeline failed: ", 0), 0u) << rank.error;
}

TEST_F(ReportTest, DegradedLineFormat)
{
    EXPECT_EQ(renderDegraded("", {}),
              "sample degraded: <unnamed>: partial result\n");
    const std::vector<support::Status> issues = {
        support::Status::error(support::Stage::Select,
                               support::ErrorCode::NotFound, "a"),
        support::Status::error(support::Stage::Taint,
                               support::ErrorCode::Timeout, "b"),
    };
    EXPECT_EQ(renderDegraded("s", issues),
              "sample degraded: s: " + issues[0].toString() + "; " +
                  issues[1].toString() + "\n");
}

} // namespace
} // namespace fits::eval
