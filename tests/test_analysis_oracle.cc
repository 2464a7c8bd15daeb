/** @file analysis::FunctionAnalysis against analysis_oracle.hh: the flat
 * per-function chain must reproduce every artifact of the chain it
 * replaced, on every function of the standard corpus and on seeded
 * random CFGs (with rodata jump tables, shuffled layouts, repeated
 * block addresses and a deep block chain). */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/program_analysis.hh"
#include "analysis_oracle.hh"
#include "chaos/chaos.hh"
#include "core/pipeline.hh"
#include "random_ir.hh"
#include "reachdef_oracle.hh"
#include "support/rng.hh"
#include "synth/firmware_gen.hh"
#include "synth/profiles.hh"

namespace fits {
namespace {

using analysis::FunctionAnalysis;
namespace prev = oracle::prev;

template <typename Range>
std::vector<std::size_t>
toVector(Range range)
{
    std::vector<std::size_t> out;
    for (std::size_t x : range)
        out.push_back(x);
    return out;
}

void
expectSame(const ir::Function &fn, const FunctionAnalysis &got,
           const prev::FunctionAnalysis &want)
{
    ASSERT_EQ(got.ucse.resolvedCalls, want.ucse.resolvedCalls);
    ASSERT_EQ(got.ucse.resolvedJumps, want.ucse.resolvedJumps);
    ASSERT_EQ(got.ucse.reachedBlocks, want.ucse.reachedBlocks);
    ASSERT_EQ(got.ucse.steps, want.ucse.steps);
    ASSERT_EQ(got.ucse.budgetExhausted, want.ucse.budgetExhausted);

    ASSERT_EQ(got.cfg.numBlocks(), want.cfg.numBlocks());
    ASSERT_EQ(got.cfg.numEdges(), want.cfg.numEdges());
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        ASSERT_EQ(toVector(got.cfg.succs(b)), want.cfg.succs(b));
        ASSERT_EQ(toVector(got.cfg.preds(b)), want.cfg.preds(b));
    }
    ASSERT_EQ(got.cfg.reachable(), want.cfg.reachable());

    ASSERT_EQ(got.loops.idom, want.loops.idom);
    ASSERT_EQ(got.loops.backEdges, want.loops.backEdges);
    ASSERT_EQ(got.loops.inLoop, want.loops.inLoop);
    ASSERT_EQ(got.loops.controlsLoop, want.loops.controlsLoop);

    ASSERT_EQ(got.consts.knownCount(), want.consts.knownCount());
    ir::TmpId maxTmp = fn.numTmps;
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (stmt.definesTmp())
                maxTmp = std::max(maxTmp, stmt.dst);
        }
    }
    for (ir::TmpId t = 0; t <= maxTmp + 1; ++t)
        ASSERT_EQ(got.consts.valueOf(t), want.consts.valueOf(t)) << t;

    ASSERT_EQ(got.params.usedMask, want.params.usedMask);
    ASSERT_EQ(got.params.count, want.params.count);

    ASSERT_EQ(oracle::nestedDeps(got.flow), want.flow.stmtDeps);
    ASSERT_EQ(got.flow.branchDepMask, want.flow.branchDepMask);
    ASSERT_EQ(got.loopDepMask, want.loopDepMask);
}

class AnalysisOracle : public ::testing::Test
{
  protected:
    void SetUp() override { chaos::reset(); }
    void TearDown() override { chaos::reset(); }
};

TEST_F(AnalysisOracle, EveryStandardCorpusFunction)
{
    const core::FitsPipeline pipeline;
    const analysis::UcseConfig config = core::PipelineConfig{}.behavior.ucse;
    std::size_t mainFns = 0, libFns = 0;
    for (const auto &spec : synth::standardDataset()) {
        const auto fw = synth::generateFirmware(spec);
        const auto artifact = pipeline.analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        const auto &pa = *artifact.analysis;
        for (analysis::FnId id = 0; id < pa.fns.size(); ++id) {
            const auto &fa = pa.fn(id);
            SCOPED_TRACE(spec.product + " seed " +
                         std::to_string(spec.seed) + " fn " +
                         std::to_string(fa.fn->entry));
            const auto want =
                prev::FunctionAnalysis::analyze(*fa.image, *fa.fn, config);
            expectSame(*fa.fn, fa, want);
            if (HasFatalFailure())
                return;
            ++(pa.linked->isMainFn(id) ? mainFns : libFns);
        }

        // The call graph's CSR runs equal the per-FnId lists the
        // sites produce in order.
        const auto &cg = pa.callGraph;
        std::vector<std::vector<std::size_t>> byCaller(pa.fns.size());
        std::vector<std::vector<std::size_t>> byCallee(pa.fns.size());
        for (std::size_t i = 0; i < cg.sites().size(); ++i) {
            byCaller[cg.sites()[i].caller].push_back(i);
            if (cg.sites()[i].resolvesToFunction())
                byCallee[cg.sites()[i].target.fn].push_back(i);
        }
        for (analysis::FnId id = 0; id < pa.fns.size(); ++id) {
            ASSERT_EQ(toVector(cg.sitesOfCaller(id)), byCaller[id]);
            ASSERT_EQ(toVector(cg.sitesOfCallee(id)), byCallee[id]);
            std::unordered_set<analysis::FnId> callers;
            for (std::size_t i : byCallee[id])
                callers.insert(cg.sites()[i].caller);
            ASSERT_EQ(cg.distinctCallerCount(id), callers.size());
        }
    }
    EXPECT_EQ(mainFns, 72658u);
    EXPECT_GT(libFns, 500u);
}

/** A read-only image whose .rodata holds `table` as 32-bit words. */
bin::BinaryImage
tableImage(const std::vector<ir::Addr> &table)
{
    bin::BinaryImage image;
    image.name = "t";
    bin::Section rodata;
    rodata.name = ".rodata";
    rodata.addr = bin::kRodataBase;
    rodata.flags = bin::kSecRead;
    for (ir::Addr a : table) {
        for (int i = 0; i < 4; ++i)
            rodata.bytes.push_back(static_cast<std::uint8_t>(a >> (8 * i)));
    }
    image.sections.push_back(rodata);
    return image;
}

TEST_F(AnalysisOracle, SeededRandomCfgs)
{
    int backEdgeIntoEntry = 0, unreachable = 0, resolvedJumps = 0,
        loops = 0, shuffled = 0, duplicated = 0;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        support::Rng rng(0xa7a1e000 + seed);
        ir::Function fn = testgen::randomFunction(rng);
        std::vector<ir::Addr> table;
        for (const auto &block : fn.blocks)
            table.push_back(block.addr);
        // Some blocks end in an indirect jump through the rodata
        // table, which only UCSE and the constant map can resolve.
        for (auto &block : fn.blocks) {
            if (!rng.chance(0.3))
                continue;
            const auto slot = static_cast<ir::TmpId>(fn.numTmps++);
            const auto target = static_cast<ir::TmpId>(fn.numTmps++);
            if (block.terminator() != nullptr)
                block.stmts.pop_back();
            block.stmts.push_back(ir::Stmt::cnst(
                slot, bin::kRodataBase + 4 * rng.index(table.size())));
            block.stmts.push_back(
                ir::Stmt::load(target, ir::Operand::ofTmp(slot)));
            block.stmts.push_back(
                ir::Stmt::jumpIndirect(ir::Operand::ofTmp(target)));
        }
        // Some layouts are not in address order, and some give two
        // blocks one address (jumps to it reach the later block).
        if (fn.blocks.size() > 2 && rng.chance(0.2)) {
            std::swap(fn.blocks[1].addr, fn.blocks[2].addr);
            ++shuffled;
        } else if (fn.blocks.size() > 2 && rng.chance(0.05)) {
            fn.blocks[2].addr = fn.blocks[1].addr;
            ++duplicated;
        }
        const auto image = tableImage(table);
        const auto got = FunctionAnalysis::analyze(image, fn);
        const auto want = prev::FunctionAnalysis::analyze(image, fn);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSame(fn, got, want);
        if (HasFatalFailure())
            return;
        backEdgeIntoEntry += !want.cfg.preds(0).empty();
        for (const bool r : want.cfg.reachable())
            unreachable += !r;
        resolvedJumps += !want.ucse.resolvedJumps.empty();
        loops += want.loops.hasLoop();
    }
    EXPECT_GT(backEdgeIntoEntry, 0);
    EXPECT_GT(unreachable, 0);
    EXPECT_GT(resolvedJumps, 100);
    EXPECT_GT(loops, 100);
    EXPECT_GT(shuffled, 0);
    EXPECT_GT(duplicated, 0);

    // A chain of directly jumping blocks, closed into a loop at the
    // entry, as deep as the oracle's recursion survives.
    ir::Function chain;
    chain.entry = 0x10000;
    const std::size_t depth = 3000;
    for (std::size_t i = 0; i < depth; ++i) {
        ir::BasicBlock block;
        block.addr = 0x10000 + 0x10 * i;
        block.stmts.push_back(ir::Stmt::jump(
            i + 1 < depth ? block.addr + 0x10 : chain.entry));
        chain.blocks.push_back(std::move(block));
    }
    const bin::BinaryImage empty;
    expectSame(chain, FunctionAnalysis::analyze(empty, chain),
               prev::FunctionAnalysis::analyze(empty, chain));
}

} // namespace
} // namespace fits
