/** @file taint::StaEngine against sta_oracle.hh: the dependency-driven
 * fixpoint, which records alerts as it goes, must report exactly the
 * alerts of the reference requeue-everything driver and its trailing
 * collection sweep, on every standard-corpus sample and on seeded
 * synthetic images under several initial schedules. Hand-built
 * programs check each requeue rule on its own. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/program_analysis.hh"
#include "chaos/chaos.hh"
#include "core/pipeline.hh"
#include "ir/builder.hh"
#include "sta_oracle.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "synth/profiles.hh"
#include "taint/sta.hh"

namespace fits {
namespace {

using analysis::FnId;
using analysis::ProgramAnalysis;
using ir::FunctionBuilder;
using ir::Operand;
using taint::Alert;
using taint::StaEngine;
using taint::TaintReport;
using taint::TaintSource;

void
expectSameReport(const TaintReport &got, const TaintReport &want)
{
    ASSERT_FALSE(want.budgetExhausted);
    EXPECT_FALSE(got.budgetExhausted);
    EXPECT_FALSE(got.deadlineExpired);
    ASSERT_EQ(got.labels.size(), want.labels.size());
    ASSERT_EQ(got.alerts.size(), want.alerts.size());
    for (std::size_t i = 0; i < got.alerts.size(); ++i) {
        const Alert &g = got.alerts[i];
        const Alert &w = want.alerts[i];
        SCOPED_TRACE("alert " + std::to_string(i) + " at " +
                     support::hex(w.sinkSite));
        EXPECT_EQ(g.sinkSite, w.sinkSite);
        EXPECT_EQ(g.sinkName, w.sinkName);
        EXPECT_EQ(g.vclass, w.vclass);
        EXPECT_EQ(g.labelMask, w.labelMask);
        EXPECT_EQ(g.hasUserDataLabel, w.hasUserDataLabel);
        EXPECT_EQ(g.inFunction, w.inFunction);
        EXPECT_EQ(g.imageIndex, w.imageIndex);
    }
}

std::vector<TaintSource>
withIts(std::vector<TaintSource> sources,
        const std::vector<ir::Addr> &itsEntries)
{
    for (ir::Addr entry : itsEntries)
        sources.push_back(TaintSource::its(entry, support::hex(entry)));
    return sources;
}

/** The ITS set the corpus evaluation uses: the top-3 ranked functions
 * that ground truth confirms. */
std::vector<ir::Addr>
verifiedIts(const core::PipelineArtifact &artifact,
            const synth::GroundTruth &truth)
{
    std::vector<ir::Addr> its;
    const auto &ranking = artifact.inference.ranking;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, ranking.size());
         ++i) {
        const ir::Addr entry = ranking[i].entry;
        if (std::find(truth.itsFunctions.begin(), truth.itsFunctions.end(),
                      entry) != truth.itsFunctions.end())
            its.push_back(entry);
    }
    return its;
}

synth::SampleSpec
seededSpec(std::uint64_t seed)
{
    const synth::VendorProfile profiles[] = {
        synth::netgearProfile(), synth::dlinkProfile(),
        synth::tplinkProfile(), synth::tendaProfile(),
        synth::ciscoProfile()};
    synth::SampleSpec spec;
    spec.profile = profiles[seed % 5];
    spec.profile.minCustomFns = 100;
    spec.profile.maxCustomFns = 160;
    spec.product = spec.profile.series.front();
    spec.version = "V1";
    spec.name = spec.product + "-V1";
    spec.seed = 0x57a0000ULL + seed * 0x9e3779b9ULL;
    return spec;
}

/** Every followed call edge u -> v with v placed after u must close a
 * cycle (v reaches u), i.e. lie inside one SCC. */
void
expectCalleesFirst(const ProgramAnalysis &pa,
                   const std::vector<FnId> &order)
{
    const std::size_t n = pa.linked->fnCount();
    ASSERT_EQ(order.size(), n);
    std::vector<std::size_t> pos(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_LT(order[i], n);
        ASSERT_EQ(pos[order[i]], n) << "FnId listed twice";
        pos[order[i]] = i;
    }
    std::vector<std::vector<FnId>> callees(n);
    for (const auto &site : pa.callGraph.sites()) {
        if (!site.indirect && site.resolvesToFunction() &&
            site.target.library.empty())
            callees[site.caller].push_back(site.target.fn);
    }
    const auto reaches = [&](FnId from, FnId to) {
        std::vector<bool> seen(n, false);
        std::vector<FnId> stack = {from};
        seen[from] = true;
        while (!stack.empty()) {
            const FnId v = stack.back();
            stack.pop_back();
            if (v == to)
                return true;
            for (FnId w : callees[v]) {
                if (!seen[w]) {
                    seen[w] = true;
                    stack.push_back(w);
                }
            }
        }
        return false;
    };
    for (FnId u = 0; u < n; ++u) {
        for (FnId v : callees[u]) {
            if (pos[v] > pos[u]) {
                EXPECT_TRUE(reaches(v, u))
                    << "callee " << v << " after caller " << u;
            }
        }
    }
}

/** Leaves fault injection disarmed around every case. */
class StaOracle : public ::testing::Test
{
  protected:
    void SetUp() override { chaos::reset(); }
    void TearDown() override { chaos::reset(); }
};

TEST_F(StaOracle, EveryStandardCorpusSample)
{
    const core::FitsPipeline pipeline;
    const StaEngine sta;
    std::size_t samples = 0, alerts = 0, itsRuns = 0;
    for (const auto &spec : synth::standardDataset()) {
        const auto fw = synth::generateFirmware(spec);
        const auto artifact = pipeline.analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        ++samples;
        const auto &pa = *artifact.analysis;
        const auto cts = taint::classicalTaintSources();
        const auto its = verifiedIts(artifact, fw.truth);
        itsRuns += !its.empty();
        for (const auto &sources : {cts, withIts(cts, its)}) {
            SCOPED_TRACE(spec.product + " seed " +
                         std::to_string(spec.seed) + " with " +
                         std::to_string(sources.size()) + " sources");
            const auto want = oracle::referenceSta(pa, sources);
            const auto got = sta.run(pa, sources);
            expectSameReport(got, want);
            alerts += got.alerts.size();
        }
    }
    EXPECT_GE(samples, 50u);
    EXPECT_GE(itsRuns, 40u);
    EXPECT_GT(alerts, 500u); // the comparison is not vacuous
}

TEST_F(StaOracle, SeededSynthImagesUnderThreeSchedules)
{
    const core::FitsPipeline pipeline;
    const StaEngine sta;
    std::size_t images = 0, alerts = 0;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const auto fw = synth::generateFirmware(seededSpec(seed));
        const auto artifact = pipeline.analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        ++images;
        const auto &pa = *artifact.analysis;
        const auto sccOrder = taint::staBottomUpOrder(pa);
        expectCalleesFirst(pa, sccOrder);
        const std::vector<FnId> reversed(sccOrder.rbegin(),
                                         sccOrder.rend());
        std::vector<FnId> shuffled = sccOrder;
        support::Rng rng(0x5c4ed000 + seed);
        rng.shuffle(shuffled);
        const std::pair<const char *, const std::vector<FnId> *>
            schedules[] = {{"SCC", &sccOrder},
                           {"reversed", &reversed},
                           {"shuffled", &shuffled}};

        const auto cts = taint::classicalTaintSources();
        for (const auto &sources :
             {cts, withIts(cts, fw.truth.itsFunctions)}) {
            const auto want = oracle::referenceSta(pa, sources);
            alerts += want.alerts.size();
            for (const auto &[name, schedule] : schedules) {
                SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                             name + " schedule, " +
                             std::to_string(sources.size()) +
                             " sources");
                expectSameReport(sta.runScheduled(pa, sources, *schedule),
                                 want);
            }
        }
    }
    EXPECT_GE(images, 45u);
    EXPECT_GT(alerts, 200u);
}

/**
 * Two-function programs over one main image, each isolating one edge
 * that has to requeue the reader: the reader (with the sink) comes
 * first in the schedule and first in layout, and sees tainted data only
 * once the writer has run.
 */
struct TwoFunctions
{
    enum class Link {
        GlobalCell,   ///< writer stores to a cell the reader loads
        UnknownStore, ///< writer stores through an unknown pointer
        ReturnValue,  ///< reader calls writer and uses its return
    };

    bin::BinaryImage main;
    ir::Addr readerEntry = 0;
    ir::Addr writerEntry = 0;
    ir::Addr sinkSite = 0;

    /** writerFirst adds the writer to the program first, so it gets
     * the lower FnId. */
    explicit TwoFunctions(Link link, bool writerFirst = false)
    {
        constexpr ir::Addr kCell = bin::kBssBase + 0x40;
        constexpr ir::Addr kOther = bin::kBssBase + 0x80;
        main.name = "httpd";
        const auto getenvPlt = main.addImport("getenv", "libc.so");
        const auto systemPlt = main.addImport("system", "libc.so");

        // Lay the reader out first; a call needs the writer's entry,
        // so the writer's size is fixed ahead of time.
        const ir::Addr readerBase = bin::kTextBase;
        writerEntry = bin::kTextBase + 0x400;

        FunctionBuilder reader;
        if (link == Link::ReturnValue) {
            reader.call(writerEntry);
            const auto v = reader.retVal();
            reader.setArg(0, Operand::ofTmp(v));
        } else {
            const auto v = reader.load(Operand::ofImm(
                link == Link::GlobalCell ? kCell : kOther));
            reader.setArg(0, Operand::ofTmp(v));
        }
        const auto blk = reader.currentBlock();
        const auto idx = reader.nextStmtIndex();
        reader.call(systemPlt);
        reader.ret();
        ir::Function readerFn = reader.build(readerBase);
        readerEntry = readerFn.entry;
        sinkSite = readerFn.blocks[blk].stmtAddr(idx);

        FunctionBuilder writer;
        writer.call(getenvPlt);
        const auto v = writer.retVal();
        switch (link) {
          case Link::GlobalCell:
            writer.store(Operand::ofImm(kCell), Operand::ofTmp(v));
            break;
          case Link::UnknownStore:
            writer.store(Operand::ofTmp(writer.get(4)),
                         Operand::ofTmp(v));
            break;
          case Link::ReturnValue:
            writer.put(ir::kRetReg, Operand::ofTmp(v));
            break;
        }
        writer.ret();
        ir::Function writerFn = writer.build(writerEntry);

        if (writerFirst)
            main.program.addFunction(std::move(writerFn));
        main.program.addFunction(std::move(readerFn));
        if (!writerFirst)
            main.program.addFunction(std::move(writerFn));
    }
};

const std::vector<bin::BinaryImage> kNoLibraries;

/** The oracle finds the reader's one alert, and STA finds the same with
 * the reader scheduled first, with the writer first, and by default. */
void
expectReaderSeesWriter(TwoFunctions::Link link)
{
    const TwoFunctions program(link);
    const analysis::LinkedProgram linked(program.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto reader = linked.fnIdOf(&program.main, program.readerEntry);
    const auto writer = linked.fnIdOf(&program.main, program.writerEntry);
    ASSERT_TRUE(reader && writer);
    const auto cts = taint::classicalTaintSources();

    const auto want = oracle::referenceSta(pa, cts);
    ASSERT_EQ(want.alerts.size(), 1u);
    EXPECT_EQ(want.alerts[0].sinkSite, program.sinkSite);

    const StaEngine sta;
    expectSameReport(sta.runScheduled(pa, cts, {*reader, *writer}), want);
    expectSameReport(sta.runScheduled(pa, cts, {*writer, *reader}), want);
    expectSameReport(sta.run(pa, cts), want);
}

TEST_F(StaOracle, CellReaderWithoutCallEdgeIsRequeued)
{
    expectReaderSeesWriter(TwoFunctions::Link::GlobalCell);
}

TEST_F(StaOracle, LoadersAreRequeuedOnUnknownStore)
{
    expectReaderSeesWriter(TwoFunctions::Link::UnknownStore);
}

TEST_F(StaOracle, CallerIsRequeuedOnReturnSummary)
{
    expectReaderSeesWriter(TwoFunctions::Link::ReturnValue);
}

TEST_F(StaOracle, SecondPassCarriesLaterBlocksForward)
{
    // A loop whose header sinks r5 before the body taints it: only the
    // second layout-order pass, which starts from the first pass's
    // registers, sees the flow, and it must still find the sink's call
    // site.
    bin::BinaryImage image;
    image.name = "httpd";
    const auto getenvPlt = image.addImport("getenv", "libc.so");
    const auto systemPlt = image.addImport("system", "libc.so");
    FunctionBuilder b;
    const auto body = b.newBlock();
    const auto exit = b.newBlock();
    b.setArg(0, Operand::ofTmp(b.get(5)));
    const auto sinkBlock = b.currentBlock();
    const auto sinkIdx = b.nextStmtIndex();
    b.call(systemPlt);
    b.jump(body);
    b.switchTo(body);
    b.call(getenvPlt);
    b.put(5, Operand::ofTmp(b.retVal()));
    b.branch(Operand::ofTmp(b.get(6)), exit);
    b.jump(0);
    b.switchTo(exit);
    b.ret();
    ir::Function fn = b.build(bin::kTextBase);
    const ir::Addr sinkSite = fn.blocks[sinkBlock].stmtAddr(sinkIdx);
    image.program.addFunction(std::move(fn));

    const analysis::LinkedProgram linked(image, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto cts = taint::classicalTaintSources();
    const auto want = oracle::referenceSta(pa, cts);
    ASSERT_EQ(want.alerts.size(), 1u);
    EXPECT_EQ(want.alerts[0].sinkSite, sinkSite);
    expectSameReport(StaEngine().run(pa, cts), want);
}

TEST_F(StaOracle, FixpointCutShortStillSweeps)
{
    // The fault clears the worklist before the first visit, so every
    // alert comes from the collection sweep over the initial state: in
    // FnId order the writer, placed first here, taints the cell before
    // the reader loads it.
    const TwoFunctions program(TwoFunctions::Link::GlobalCell, true);
    const analysis::LinkedProgram linked(program.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    ASSERT_LT(*linked.fnIdOf(&program.main, program.writerEntry),
              *linked.fnIdOf(&program.main, program.readerEntry));

    ASSERT_TRUE(chaos::configure("taint.sta"));
    const auto report =
        StaEngine().run(pa, taint::classicalTaintSources());
    EXPECT_TRUE(report.deadlineExpired);
    ASSERT_EQ(report.alerts.size(), 1u);
    EXPECT_EQ(report.alerts[0].sinkSite, program.sinkSite);
}

} // namespace
} // namespace fits
