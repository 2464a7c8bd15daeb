/** @file taint::StaEngine against sta_oracle.hh: the dependency-driven
 * fixpoint, which records alerts as it goes, must report exactly the
 * alerts of the reference requeue-everything driver and its trailing
 * collection sweep, on every standard-corpus sample and on seeded
 * synthetic images under several initial schedules. Hand-built
 * programs check each requeue rule on its own. The StaProjection cases
 * check StaEngine::prefixReport, the CTS report derived from a CTS+ITS
 * run, against a direct CTS run. */

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
#include "taint_samples.hh"

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

using testing_taint::seededSpec;
using testing_taint::verifiedIts;
using testing_taint::withIts;

void
expectSameReport(const TaintReport &got, const TaintReport &want)
{
    ASSERT_FALSE(want.budgetExhausted);
    EXPECT_FALSE(got.budgetExhausted);
    EXPECT_FALSE(got.deadlineExpired);
    ASSERT_EQ(got.labels.size(), want.labels.size());
    testing_taint::expectSameAlerts(got.alerts, want.alerts);
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

TEST_F(StaOracle, LibraryMemoryWriterTaintsItsDestination)
{
    const testing_taint::MemoryWriterProgram program;
    const analysis::LinkedProgram linked(program.main, program.libraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto cts = taint::classicalTaintSources();
    const auto want = oracle::referenceSta(pa, cts);
    EXPECT_TRUE(std::any_of(want.alerts.begin(), want.alerts.end(),
                            [&](const Alert &alert) {
                                return alert.sinkSite == program.systemSink;
                            }));
    expectSameReport(StaEngine().run(pa, cts), want);
}

/** prefixReport(pa, sources, prefix, run(pa, sources)) against a
 * direct run(pa, sources[0, prefix)): labels, every alert field and
 * the flags (steps and time are the shared run's, so they differ).
 * Returns the number of alerts compared. */
std::size_t
expectProjectionMatches(const ProgramAnalysis &pa,
                        const std::vector<TaintSource> &sources,
                        std::size_t prefix)
{
    const StaEngine sta;
    const std::vector<TaintSource> head(
        sources.begin(),
        sources.begin() + static_cast<std::ptrdiff_t>(prefix));
    const auto want = sta.run(pa, head);
    const auto full = sta.run(pa, sources);
    const auto got = sta.prefixReport(pa, sources, prefix, full);
    EXPECT_FALSE(full.budgetExhausted);
    EXPECT_EQ(got.budgetExhausted, want.budgetExhausted);
    EXPECT_EQ(got.deadlineExpired, want.deadlineExpired);
    EXPECT_EQ(got.labels.size(), want.labels.size());
    for (std::size_t i = 0;
         i < std::min(got.labels.size(), want.labels.size()); ++i) {
        EXPECT_EQ(got.labels[i].sourceIndex, want.labels[i].sourceIndex);
        EXPECT_EQ(got.labels[i].systemData, want.labels[i].systemData);
        EXPECT_EQ(got.labels[i].description, want.labels[i].description);
    }
    testing_taint::expectSameAlerts(got.alerts, want.alerts);
    return want.alerts.size();
}

TEST_F(StaOracle, ProjectionEqualsCtsRunOnEveryStandardCorpusSample)
{
    const core::FitsPipeline pipeline;
    std::size_t samples = 0, alerts = 0;
    for (const auto &spec : synth::standardDataset()) {
        const auto fw = synth::generateFirmware(spec);
        const auto artifact = pipeline.analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        ++samples;
        SCOPED_TRACE(spec.product + " seed " + std::to_string(spec.seed));
        const auto cts = taint::classicalTaintSources();
        alerts += expectProjectionMatches(
            *artifact.analysis,
            withIts(cts, verifiedIts(artifact, fw.truth)), cts.size());
    }
    EXPECT_GE(samples, 50u);
    EXPECT_GT(alerts, 200u);
}

TEST_F(StaOracle, ProjectionEqualsCtsRunOnSeededSynthImages)
{
    const core::FitsPipeline pipeline;
    std::size_t images = 0, alerts = 0;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const auto fw = synth::generateFirmware(seededSpec(seed));
        const auto artifact = pipeline.analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        ++images;
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto cts = taint::classicalTaintSources();
        alerts += expectProjectionMatches(
            *artifact.analysis, withIts(cts, fw.truth.itsFunctions),
            cts.size());
    }
    EXPECT_GE(images, 45u);
    EXPECT_GT(alerts, 100u);
}

/**
 * One handler over a recv buffer and an ITS getter:
 *   shared:  strcpy(kOut, *(kBuf+4) | getter())   CTS and ITS flow
 *   itsOnly: system(getter())
 *   ctsOnly: system(*(kBuf+8))
 */
struct CtsAndItsFlows
{
    bin::BinaryImage main;
    ir::Addr getterEntry = 0;
    ir::Addr shared = 0, itsOnly = 0, ctsOnly = 0;

    CtsAndItsFlows()
    {
        constexpr ir::Addr kBuf = bin::kBssBase;
        constexpr ir::Addr kOut = bin::kBssBase + 0x200;
        main.name = "httpd";
        const auto recvPlt = main.addImport("recv", "libc.so");
        const auto strcpyPlt = main.addImport("strcpy", "libc.so");
        const auto systemPlt = main.addImport("system", "libc.so");

        FunctionBuilder getter;
        getter.put(ir::kRetReg,
                   Operand::ofTmp(getter.load(
                       Operand::ofTmp(getter.get(ir::kRegR1)))));
        getter.ret();
        ir::Function getterFn = getter.build(bin::kTextBase);
        getterEntry = getterFn.entry;
        const ir::Addr handlerEntry =
            getterEntry + getterFn.byteSize() + ir::kStmtSize;
        main.program.addFunction(std::move(getterFn));

        FunctionBuilder b;
        std::vector<std::pair<ir::Addr *, std::pair<std::size_t,
                                                    std::size_t>>>
            marks;
        const auto mark = [&](ir::Addr *out) {
            marks.push_back({out, {b.currentBlock(), b.nextStmtIndex()}});
        };
        b.setArg(0, Operand::ofImm(0));
        b.setArg(1, Operand::ofImm(kBuf));
        b.setArg(2, Operand::ofImm(64));
        b.call(recvPlt);
        b.call(getterEntry);
        b.put(7, Operand::ofTmp(b.retVal()));
        const auto fromRecv = b.load(Operand::ofImm(kBuf + 4));
        const auto mixed = b.binop(ir::BinOp::Or, Operand::ofTmp(fromRecv),
                                   Operand::ofTmp(b.get(7)));
        b.setArg(0, Operand::ofImm(kOut));
        b.setArg(1, Operand::ofTmp(mixed));
        mark(&shared);
        b.call(strcpyPlt);
        b.setArg(0, Operand::ofTmp(b.get(7)));
        mark(&itsOnly);
        b.call(systemPlt);
        b.setArg(0, Operand::ofTmp(b.load(Operand::ofImm(kBuf + 8))));
        mark(&ctsOnly);
        b.call(systemPlt);
        b.ret();
        ir::Function handler = b.build(handlerEntry);
        for (const auto &[out, pos] : marks)
            *out = handler.blocks[pos.first].stmtAddr(pos.second);
        main.program.addFunction(std::move(handler));
    }
};

TEST_F(StaOracle, ProjectionSplitsCtsAndItsFlowsAtOneSink)
{
    const CtsAndItsFlows program;
    const analysis::LinkedProgram linked(program.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto cts = taint::classicalTaintSources();
    const auto sources = withIts(cts, {program.getterEntry});

    // The full run sees all three sinks, the shared one with both a
    // CTS and an ITS bit; the projection keeps the shared sink with
    // only its CTS bit, keeps the CTS-only sink and drops the ITS-only
    // one.
    const StaEngine sta;
    const auto full = sta.run(pa, sources);
    const auto bitsAt = [](const TaintReport &report, ir::Addr site) {
        for (const auto &alert : report.alerts) {
            if (alert.sinkSite == site)
                return alert.labelMask;
        }
        return std::uint64_t{0};
    };
    const std::uint64_t recvBit = 1; // recv is the first CTS
    const std::uint64_t itsUserBit = std::uint64_t{1} << cts.size();
    EXPECT_EQ(bitsAt(full, program.shared), recvBit | itsUserBit);
    EXPECT_EQ(bitsAt(full, program.itsOnly), itsUserBit);
    EXPECT_EQ(bitsAt(full, program.ctsOnly), recvBit);

    const auto projected = sta.prefixReport(pa, sources, cts.size(), full);
    EXPECT_EQ(projected.steps, full.steps);
    EXPECT_EQ(projected.analysisMs, full.analysisMs);
    ASSERT_EQ(projected.alerts.size(), 2u);
    EXPECT_EQ(bitsAt(projected, program.shared), recvBit);
    EXPECT_EQ(bitsAt(projected, program.ctsOnly), recvBit);
    EXPECT_EQ(expectProjectionMatches(pa, sources, cts.size()), 2u);
}

TEST_F(StaOracle, ProjectionRunsThePrefixWhenALaterLabelSharesItsBit)
{
    // 64 CTS labels fill the table, recv last on bit 63, which the ITS
    // labels after them share: masking would keep the ITS-only sink.
    const CtsAndItsFlows program;
    const analysis::LinkedProgram linked(program.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    std::vector<TaintSource> sources;
    for (int i = 0; i < 63; ++i)
        sources.push_back(TaintSource::cts("unused" + std::to_string(i),
                                           TaintSource::Origin::ReturnValue));
    sources.push_back(
        TaintSource::cts("recv", TaintSource::Origin::PointerArg, 1));
    const std::size_t prefix = sources.size();
    sources = withIts(sources, {program.getterEntry});

    const StaEngine sta;
    const auto projected =
        sta.prefixReport(pa, sources, prefix, sta.run(pa, sources));
    EXPECT_EQ(projected.steps,
              sta.run(pa, std::vector<TaintSource>(
                              sources.begin(), sources.end() - 1))
                  .steps);
    ASSERT_EQ(projected.alerts.size(), 2u);
    for (const auto &alert : projected.alerts)
        EXPECT_NE(alert.sinkSite, program.itsOnly);
    EXPECT_EQ(expectProjectionMatches(pa, sources, prefix), 2u);
}

} // namespace
} // namespace fits
