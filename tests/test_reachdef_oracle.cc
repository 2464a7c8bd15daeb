/** @file analysis::ReachingDefs against reachdef_oracle.hh: the
 * parameter-mask dataflow must produce exactly the stmtDeps and
 * branchDepMask of the reference reaching-definitions DDG, on every
 * function of the standard corpus and on seeded random CFGs, and stay
 * fully sized (under-approximating) when cut short. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/constmap.hh"
#include "analysis/reachdef.hh"
#include "chaos/chaos.hh"
#include "core/pipeline.hh"
#include "random_ir.hh"
#include "reachdef_oracle.hh"
#include "support/rng.hh"
#include "synth/firmware_gen.hh"
#include "synth/profiles.hh"

namespace fits {
namespace {

using analysis::Cfg;
using analysis::ReachingDefs;
using analysis::TmpConstMap;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;
using testgen::randomFunction;

/** Shapes a random function exercised; the sweep asserts each shows. */
struct Coverage
{
    int backEdgeIntoEntry = 0;
    int unreachableBlock = 0;
    int unknownStore = 0;
    int loadFromUntargetedConst = 0;
    int callWithUntouchedArgs = 0;
    int nonzeroMasks = 0;
    std::set<int> numParams;
};

void
recordCoverage(const ir::Function &fn, const Cfg &cfg,
               const TmpConstMap &consts, int numParams,
               const oracle::ReachDefResult &want, Coverage &cov)
{
    cov.numParams.insert(numParams);
    if (!cfg.preds(cfg.entry()).empty())
        ++cov.backEdgeIntoEntry;
    for (const bool reached : cfg.reachable()) {
        if (!reached)
            ++cov.unreachableBlock;
    }

    std::set<std::uint64_t> storeAddrs;
    std::set<ir::RegId> putRegs;
    bool hasCall = false;
    for (const auto &block : fn.blocks) {
        for (const Stmt &stmt : block.stmts) {
            if (stmt.kind == StmtKind::Store) {
                if (auto addr = consts.valueOf(stmt.a))
                    storeAddrs.insert(*addr);
                else
                    ++cov.unknownStore;
            }
            if (stmt.kind == StmtKind::Put)
                putRegs.insert(stmt.reg);
            hasCall |= stmt.kind == StmtKind::Call;
        }
    }
    for (const auto &block : fn.blocks) {
        for (const Stmt &stmt : block.stmts) {
            if (stmt.kind != StmtKind::Load)
                continue;
            const auto addr = consts.valueOf(stmt.a);
            if (addr && storeAddrs.count(*addr) == 0)
                ++cov.loadFromUntargetedConst;
        }
    }
    for (int r = 0; hasCall && r < numParams && r < ir::kNumArgRegs; ++r) {
        if (putRegs.count(static_cast<ir::RegId>(r)) == 0) {
            ++cov.callWithUntouchedArgs;
            break;
        }
    }
    for (const auto &row : want.stmtDeps) {
        for (const std::uint8_t mask : row)
            cov.nonzeroMasks += mask != 0;
    }
}

void
expectSizedSubset(const ir::Function &fn,
                  const ReachingDefs::Result &got,
                  const oracle::ReachDefResult &want)
{
    const auto rows = oracle::nestedDeps(got);
    ASSERT_EQ(rows.size(), fn.blocks.size());
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        ASSERT_EQ(rows[b].size(), fn.blocks[b].stmts.size());
        for (std::size_t s = 0; s < rows[b].size(); ++s)
            EXPECT_EQ(rows[b][s] & ~want.stmtDeps[b][s], 0);
    }
    EXPECT_EQ(got.branchDepMask & ~want.branchDepMask, 0);
}

/** Leaves fault injection disarmed around every case. */
class ReachDefOracle : public ::testing::Test
{
  protected:
    void SetUp() override { chaos::reset(); }
    void TearDown() override { chaos::reset(); }
};

TEST_F(ReachDefOracle, EveryStandardCorpusFunction)
{
    const core::FitsPipeline pipeline;
    std::size_t samples = 0, mainFns = 0, libFns = 0, nonzero = 0;
    for (const auto &spec : synth::standardDataset()) {
        const auto fw = synth::generateFirmware(spec);
        const auto artifact = pipeline.analyze(fw.bytes);
        if (!artifact.hasAnalysis())
            continue;
        ++samples;
        const auto &pa = *artifact.analysis;
        for (analysis::FnId id = 0; id < pa.fns.size(); ++id) {
            const auto &fa = pa.fn(id);
            const auto want = oracle::referenceReachingDefs(
                fa.cfg, *fa.fn, fa.consts, fa.params.count);
            SCOPED_TRACE(spec.product + " seed " +
                         std::to_string(spec.seed) + " fn " +
                         std::to_string(fa.fn->entry));
            ASSERT_FALSE(fa.flow.deadlineExpired);
            ASSERT_EQ(oracle::nestedDeps(fa.flow), want.stmtDeps);
            ASSERT_EQ(fa.flow.branchDepMask, want.branchDepMask);
            ++(pa.linked->isMainFn(id) ? mainFns : libFns);
            nonzero += fa.flow.branchDepMask != 0;
        }
    }
    EXPECT_GE(samples, 50u);
    EXPECT_GT(mainFns, 50000u);
    EXPECT_GT(libFns, 500u);
    EXPECT_GT(nonzero, 1000u); // the masks are not trivially zero
}

TEST_F(ReachDefOracle, SeededRandomCfgs)
{
    Coverage cov;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        support::Rng rng(0x7eacde00 + seed);
        const ir::Function fn = randomFunction(rng);
        const int numParams = static_cast<int>(seed % 5);
        const Cfg cfg = Cfg::build(fn);
        const auto consts = TmpConstMap::compute(fn, nullptr);
        const auto got = ReachingDefs::analyze(cfg, fn, consts, numParams);
        const auto want =
            oracle::referenceReachingDefs(cfg, fn, consts, numParams);
        SCOPED_TRACE("seed " + std::to_string(seed));
        ASSERT_FALSE(got.deadlineExpired);
        ASSERT_EQ(oracle::nestedDeps(got), want.stmtDeps);
        ASSERT_EQ(got.branchDepMask, want.branchDepMask);
        recordCoverage(fn, cfg, consts, numParams, want, cov);
    }
    EXPECT_GT(cov.backEdgeIntoEntry, 0);
    EXPECT_GT(cov.unreachableBlock, 0);
    EXPECT_GT(cov.unknownStore, 0);
    EXPECT_GT(cov.loadFromUntargetedConst, 0);
    EXPECT_GT(cov.callWithUntouchedArgs, 0);
    EXPECT_GT(cov.nonzeroMasks, 100);
    EXPECT_EQ(cov.numParams, (std::set<int>{0, 1, 2, 3, 4}));
}

TEST_F(ReachDefOracle, ExpiredDeadlineStaysSizedAndUnderApproximates)
{
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        support::Rng rng(0xdead0000 + seed);
        const ir::Function fn = randomFunction(rng);
        const int numParams = static_cast<int>(seed % 5);
        const Cfg cfg = Cfg::build(fn);
        const auto consts = TmpConstMap::compute(fn, nullptr);
        const auto got = ReachingDefs::analyze(
            cfg, fn, consts, numParams, support::Deadline::afterMs(0));
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_TRUE(got.deadlineExpired);
        expectSizedSubset(
            fn, got,
            oracle::referenceReachingDefs(cfg, fn, consts, numParams));
    }
}

TEST_F(ReachDefOracle, ChaosSiteZeroesEveryMask)
{
    ASSERT_TRUE(chaos::configure("flow.reachdef"));
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        support::Rng rng(0xc4a05000 + seed);
        const ir::Function fn = randomFunction(rng);
        const Cfg cfg = Cfg::build(fn);
        const auto consts = TmpConstMap::compute(fn, nullptr);
        const auto got = ReachingDefs::analyze(cfg, fn, consts, 4);
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_TRUE(got.deadlineExpired);
        EXPECT_EQ(got.branchDepMask, 0);
        const auto rows = oracle::nestedDeps(got);
        ASSERT_EQ(rows.size(), fn.blocks.size());
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            EXPECT_EQ(rows[b], std::vector<std::uint8_t>(
                                   fn.blocks[b].stmts.size(), 0));
        }
    }
}

} // namespace
} // namespace fits
