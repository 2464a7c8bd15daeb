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

constexpr ir::Addr kBlockBase = 0x10000;
constexpr ir::Addr kBlockStride = 0x100;
constexpr ir::TmpId kTmpPool = 10;

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

/**
 * A random function of up to eight blocks. Temporaries come from a
 * small pool, so they are redefined and read across blocks; addresses
 * come from a small pool of constants (plus temporaries, mostly not
 * constant), so loads and stores alias; branch and jump targets include
 * the entry. Half the functions have no unknown-address stores and
 * half have no calls, which keep the unknown memory cell clean enough
 * for the constant cells' overwrites to show in the masks.
 */
ir::Function
randomFunction(support::Rng &rng)
{
    ir::Function fn;
    fn.entry = kBlockBase;
    fn.numTmps = kTmpPool;
    const int numBlocks = static_cast<int>(rng.uniformInt(1, 8));
    const auto blockAddr = [&] {
        return kBlockBase + kBlockStride * rng.index(numBlocks);
    };
    const auto tmp = [&] {
        return static_cast<ir::TmpId>(rng.index(kTmpPool));
    };
    const auto operand = [&] {
        return rng.chance(0.75) ? Operand::ofTmp(tmp())
                                : Operand::ofImm(rng.index(3));
    };
    const std::vector<std::uint64_t> addrs = {0x500000, 0x500004,
                                              0x500008};
    const auto address = [&](double unknown) {
        return rng.chance(unknown) ? Operand::ofTmp(tmp())
                                   : Operand::ofImm(rng.pick(addrs));
    };
    const double unknownStores = rng.chance(0.5) ? 0.5 : 0.0;
    const bool withCalls = rng.chance(0.5);
    const auto reg = [&] {
        return static_cast<ir::RegId>(
            rng.chance(0.7) ? rng.index(ir::kNumArgRegs)
                            : rng.index(ir::kNumRegs));
    };

    for (int b = 0; b < numBlocks; ++b) {
        ir::BasicBlock block;
        block.addr = kBlockBase + kBlockStride * static_cast<ir::Addr>(b);
        const int numStmts = static_cast<int>(rng.uniformInt(0, 10));
        for (int s = 0; s < numStmts; ++s) {
            switch (rng.index(9)) {
              case 0:
                block.stmts.push_back(Stmt::get(tmp(), reg()));
                break;
              case 1:
                block.stmts.push_back(Stmt::put(reg(), operand()));
                break;
              case 2:
                block.stmts.push_back(Stmt::cnst(
                    tmp(), rng.chance(0.7) ? rng.pick(addrs) : 7));
                break;
              case 3:
                block.stmts.push_back(Stmt::binop(
                    tmp(), rng.chance(0.5) ? ir::BinOp::Add
                                           : ir::BinOp::CmpLt,
                    operand(), operand()));
                break;
              case 4:
                block.stmts.push_back(Stmt::load(tmp(), address(0.5)));
                break;
              case 5:
                block.stmts.push_back(
                    Stmt::store(address(unknownStores), operand()));
                break;
              case 6:
                if (!withCalls)
                    block.stmts.push_back(Stmt::store(
                        address(unknownStores), operand()));
                else if (rng.chance(0.8))
                    block.stmts.push_back(Stmt::call(0x90000));
                else
                    block.stmts.push_back(
                        Stmt::callIndirect(Operand::ofTmp(tmp())));
                break;
              default:
                block.stmts.push_back(
                    Stmt::branch(operand(), blockAddr()));
                break;
            }
        }
        switch (rng.index(4)) {
          case 0:
            block.stmts.push_back(Stmt::ret());
            break;
          case 1:
            block.stmts.push_back(Stmt::jump(blockAddr()));
            break;
          case 2:
            block.stmts.push_back(
                Stmt::jumpIndirect(Operand::ofTmp(tmp())));
            break;
          default:
            break; // fall through to the next block
        }
        fn.blocks.push_back(std::move(block));
    }
    return fn;
}

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
    ASSERT_EQ(got.stmtDeps.size(), fn.blocks.size());
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        ASSERT_EQ(got.stmtDeps[b].size(), fn.blocks[b].stmts.size());
        for (std::size_t s = 0; s < got.stmtDeps[b].size(); ++s)
            EXPECT_EQ(got.stmtDeps[b][s] & ~want.stmtDeps[b][s], 0);
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
            ASSERT_EQ(fa.flow.stmtDeps, want.stmtDeps);
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
        ASSERT_EQ(got.stmtDeps, want.stmtDeps);
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
        ASSERT_EQ(got.stmtDeps.size(), fn.blocks.size());
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            EXPECT_EQ(got.stmtDeps[b],
                      std::vector<std::uint8_t>(
                          fn.blocks[b].stmts.size(), 0));
        }
    }
}

} // namespace
} // namespace fits
