/** @file taint::KaronteEngine against karonte_oracle.hh: flat path
 * memory, call sites found by binary search, a load-cell index built
 * once per run and call-site roles resolved once per run must report
 * exactly the reference engine's alerts, steps, budget flag and work
 * counters, on every standard-corpus sample and on seeded synthetic
 * images. Hand-built programs isolate the fork copy, the two-site call,
 * the cell-reader discovery, the stacked frame temporaries and the
 * library memory writer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/program_analysis.hh"
#include "chaos/chaos.hh"
#include "core/pipeline.hh"
#include "ir/builder.hh"
#include "karonte_oracle.hh"
#include "obs/metrics.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint_samples.hh"

namespace fits {
namespace {

using analysis::ProgramAnalysis;
using ir::FunctionBuilder;
using ir::Operand;
using taint::KaronteEngine;
using taint::TaintSource;
using testing_taint::seededSpec;
using testing_taint::verifiedIts;
using testing_taint::withIts;

/** Runs the engine with metrics armed and returns what it reports in
 * the shape of the oracle's result. */
oracle::KaronteOracleResult
runCounted(const ProgramAnalysis &pa,
           const std::vector<TaintSource> &sources)
{
    obs::Registry::instance().reset();
    obs::setEnabled(true);
    oracle::KaronteOracleResult got;
    got.report = KaronteEngine().run(pa, sources);
    obs::setEnabled(false);
    const auto counters = obs::Registry::instance().snapshot().counters;
    const auto counter = [&](const char *name) -> std::size_t {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    };
    got.phaseASteps = counter("taint.karonte.phase_a_steps");
    got.phaseBSteps = counter("taint.karonte.phase_b_steps");
    got.forkedPaths = counter("taint.karonte.forked_paths");
    return got;
}

/** Every alert field, the step count, the budget flag and the work
 * counters; returns the number of alerts compared. */
std::size_t
expectSameAsOracle(const ProgramAnalysis &pa,
                   const std::vector<TaintSource> &sources)
{
    const auto want = oracle::referenceKaronte(pa, sources);
    const auto got = runCounted(pa, sources);
    EXPECT_EQ(got.report.labels.size(), want.report.labels.size());
    testing_taint::expectSameAlerts(got.report.alerts, want.report.alerts);
    EXPECT_EQ(got.report.steps, want.report.steps);
    EXPECT_EQ(got.report.budgetExhausted, want.report.budgetExhausted);
    EXPECT_FALSE(got.report.deadlineExpired);
    EXPECT_EQ(got.phaseASteps, want.phaseASteps);
    EXPECT_EQ(got.phaseBSteps, want.phaseBSteps);
    EXPECT_EQ(got.forkedPaths, want.forkedPaths);
    return want.report.alerts.size();
}

/** Leaves fault injection and metrics disarmed around every case. */
class KaronteOracle : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chaos::reset();
        obs::setEnabled(false);
    }

    void
    TearDown() override
    {
        chaos::reset();
        obs::setEnabled(false);
        obs::Registry::instance().reset();
    }
};

TEST_F(KaronteOracle, EveryStandardCorpusSample)
{
    const core::FitsPipeline pipeline;
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
            alerts += expectSameAsOracle(pa, sources);
        }
    }
    EXPECT_GE(samples, 50u);
    EXPECT_GE(itsRuns, 40u);
    EXPECT_GT(alerts, 150u); // the comparison is not vacuous
}

TEST_F(KaronteOracle, SeededSynthImages)
{
    const core::FitsPipeline pipeline;
    std::size_t images = 0, alerts = 0;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const auto fw = synth::generateFirmware(seededSpec(seed));
        const auto artifact = pipeline.analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        ++images;
        const auto cts = taint::classicalTaintSources();
        for (const auto &sources :
             {cts, withIts(cts, fw.truth.itsFunctions)}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(sources.size()) + " sources");
            alerts += expectSameAsOracle(*artifact.analysis, sources);
        }
    }
    EXPECT_GE(images, 45u);
    EXPECT_GT(alerts, 100u);
}

constexpr ir::Addr kBuf = bin::kBssBase;         // recv target
constexpr ir::Addr kOut = bin::kBssBase + 0x200; // sink scratch

/** A main image with recv, strcpy and system imports and functions
 * laid out one after another; each add() returns the function's entry
 * and, through `sink`, the address of a statement recorded with
 * markSink(). */
struct Program
{
    bin::BinaryImage main;
    ir::Addr recvPlt = 0, strcpyPlt = 0, systemPlt = 0;
    ir::Addr cursor = bin::kTextBase;

    Program()
    {
        main.name = "httpd";
        recvPlt = main.addImport("recv", "libc.so");
        strcpyPlt = main.addImport("strcpy", "libc.so");
        systemPlt = main.addImport("system", "libc.so");
        bin::Section bss;
        bss.name = ".bss";
        bss.addr = bin::kBssBase;
        bss.flags = bin::kSecRead | bin::kSecWrite;
        bss.bytes.assign(0x400, 0);
        main.sections.push_back(bss);
    }

    ir::Addr
    add(FunctionBuilder &b)
    {
        ir::Function fn = b.build(cursor);
        const ir::Addr entry = fn.entry;
        for (auto &[blk, idx, out] : marks)
            *out = fn.blocks[blk].stmtAddr(idx);
        marks.clear();
        cursor += fn.byteSize() + ir::kStmtSize;
        main.program.addFunction(std::move(fn));
        return entry;
    }

    /** The next statement `b` appends is a sink call: record its
     * address in *out once the function is placed. */
    void
    markSink(const FunctionBuilder &b, ir::Addr *out)
    {
        marks.push_back({b.currentBlock(), b.nextStmtIndex(), out});
    }

    /** recv(0, kBuf, 64): taints kBuf .. kBuf+63. */
    void
    recvInto(FunctionBuilder &b) const
    {
        b.setArg(0, Operand::ofImm(0));
        b.setArg(1, Operand::ofImm(kBuf));
        b.setArg(2, Operand::ofImm(64));
        b.call(recvPlt);
    }

    /** strcpy(kOut, *(kBuf + off)). */
    void
    copyFromBuf(FunctionBuilder &b, ir::Addr off, ir::Addr *sink)
    {
        const auto v = b.load(Operand::ofImm(kBuf + off));
        b.setArg(0, Operand::ofImm(kOut));
        b.setArg(1, Operand::ofTmp(v));
        markSink(b, sink);
        b.call(strcpyPlt);
    }

    struct Mark
    {
        std::size_t blk, idx;
        ir::Addr *out;
    };
    std::vector<Mark> marks;
};

const std::vector<bin::BinaryImage> kNoLibraries;

std::vector<ir::Addr>
alertSites(const taint::TaintReport &report)
{
    std::vector<ir::Addr> sites;
    for (const auto &alert : report.alerts)
        sites.push_back(alert.sinkSite);
    return sites;
}

TEST_F(KaronteOracle, StrongUpdateClearsSeededCellOnOneForkOnly)
{
    // recv taints kBuf; an unknown branch forks. The fall-through path,
    // explored first, stores a constant over kBuf+4 before copying it;
    // the taken path copies kBuf+4 untouched. Only the taken path's
    // copy may alert, which it does only if the fork got its own copy
    // of the path memory.
    Program p;
    ir::Addr clearedSink = 0, taintedSink = 0;
    FunctionBuilder b;
    const auto taken = b.newBlock();
    p.recvInto(b);
    b.branch(Operand::ofTmp(b.get(6)), taken);
    b.store(Operand::ofImm(kBuf + 4), Operand::ofImm(0));
    p.copyFromBuf(b, 4, &clearedSink);
    b.ret();
    b.switchTo(taken);
    p.copyFromBuf(b, 4, &taintedSink);
    b.ret();
    p.add(b);

    const analysis::LinkedProgram linked(p.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto cts = taint::classicalTaintSources();
    const auto want = oracle::referenceKaronte(pa, cts);
    EXPECT_EQ(alertSites(want.report),
              std::vector<ir::Addr>{taintedSink});
    EXPECT_NE(clearedSink, taintedSink);
    EXPECT_EQ(want.forkedPaths, 1u);
    expectSameAsOracle(pa, cts);
}

TEST_F(KaronteOracle, CallStatementWithTwoSites)
{
    // The root picks one of two handlers into r5 and calls through it;
    // UCSE resolves the call to both, so it has two call sites behind
    // one statement (after a direct recv call in the same function).
    // Karonte descends into the first and forks for the second: both
    // handlers' copies of the tainted argument alert.
    Program p;
    ir::Addr sinkA = 0, sinkB = 0;
    const auto handler = [&](ir::Addr *sink) {
        FunctionBuilder h;
        h.setArg(1, Operand::ofTmp(h.get(0)));
        h.setArg(0, Operand::ofImm(kOut));
        p.markSink(h, sink);
        h.call(p.strcpyPlt);
        h.ret();
        return p.add(h);
    };
    const ir::Addr handlerA = handler(&sinkA);
    const ir::Addr handlerB = handler(&sinkB);

    FunctionBuilder b;
    const auto pickB = b.newBlock();
    const auto join = b.newBlock();
    p.recvInto(b);
    b.put(5, Operand::ofImm(handlerA));
    b.branch(Operand::ofTmp(b.get(6)), pickB);
    b.jump(join);
    b.switchTo(pickB);
    b.put(5, Operand::ofImm(handlerB));
    b.jump(join);
    b.switchTo(join);
    b.setArg(0, Operand::ofTmp(b.load(Operand::ofImm(kBuf + 8))));
    b.callIndirect(Operand::ofTmp(b.get(5)));
    b.ret();
    const ir::Addr root = p.add(b);

    const analysis::LinkedProgram linked(p.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto rootId = linked.fnIdOf(&p.main, root);
    ASSERT_TRUE(rootId);
    std::size_t indirectSites = 0;
    for (std::size_t s : pa.callGraph.sitesOfCaller(*rootId))
        indirectSites += pa.callGraph.sites()[s].indirect;
    ASSERT_EQ(indirectSites, 2u);

    const auto cts = taint::classicalTaintSources();
    const auto want = oracle::referenceKaronte(pa, cts);
    std::vector<ir::Addr> expected = {sinkA, sinkB};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(alertSites(want.report), expected);
    expectSameAsOracle(pa, cts);
}

TEST_F(KaronteOracle, CellReaderWithoutCallEdgeIsExplored)
{
    // The reader loads a cell recv tainted in another function; no call
    // edge joins them and the reader calls no source, so only the
    // load-cell discovery round makes it a root. The reader comes first
    // in FnId order, so the index must cover the first function too.
    Program p;
    ir::Addr readerSink = 0;
    FunctionBuilder reader;
    reader.setArg(0,
                  Operand::ofTmp(reader.load(Operand::ofImm(kBuf + 16))));
    p.markSink(reader, &readerSink);
    reader.call(p.systemPlt);
    reader.ret();
    p.add(reader);

    FunctionBuilder writer;
    p.recvInto(writer);
    writer.ret();
    p.add(writer);

    const analysis::LinkedProgram linked(p.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto cts = taint::classicalTaintSources();
    const auto want = oracle::referenceKaronte(pa, cts);
    EXPECT_EQ(alertSites(want.report),
              std::vector<ir::Addr>{readerSink});
    expectSameAsOracle(pa, cts);
}

TEST_F(KaronteOracle, CalleeFrameKeepsCallerTemporaries)
{
    // The root's only temporary holds recv data across a call into a
    // helper that writes a constant into its own first temporary; the
    // copy after the call alerts only if the helper's temporaries sit
    // above the root's.
    Program p;
    ir::Addr sink = 0;
    FunctionBuilder helper;
    helper.put(5, Operand::ofTmp(helper.cnst(0)));
    helper.ret();
    const ir::Addr helperEntry = p.add(helper);

    FunctionBuilder b;
    p.recvInto(b);
    const auto v = b.load(Operand::ofImm(kBuf + 4));
    b.call(helperEntry);
    b.setArg(0, Operand::ofImm(kOut));
    b.setArg(1, Operand::ofTmp(v));
    p.markSink(b, &sink);
    b.call(p.strcpyPlt);
    b.ret();
    p.add(b);

    const analysis::LinkedProgram linked(p.main, kNoLibraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto cts = taint::classicalTaintSources();
    const auto want = oracle::referenceKaronte(pa, cts);
    EXPECT_EQ(alertSites(want.report), std::vector<ir::Addr>{sink});
    expectSameAsOracle(pa, cts);
}

TEST_F(KaronteOracle, LibraryMemoryWriterTaintsItsDestination)
{
    const testing_taint::MemoryWriterProgram program;
    const analysis::LinkedProgram linked(program.main, program.libraries);
    const auto pa = ProgramAnalysis::analyze(linked);
    const auto cts = taint::classicalTaintSources();
    const auto want = oracle::referenceKaronte(pa, cts);
    const auto sites = alertSites(want.report);
    EXPECT_NE(std::find(sites.begin(), sites.end(), program.systemSink),
              sites.end());
    expectSameAsOracle(pa, cts);
}

} // namespace
} // namespace fits
