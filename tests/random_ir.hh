/** @file A seeded generator of small random FIR functions, shared by
 * the tests that compare an analysis against its oracle. */

#ifndef FITS_TESTS_RANDOM_IR_HH_
#define FITS_TESTS_RANDOM_IR_HH_

#include <cstdint>
#include <vector>

#include "ir/function.hh"
#include "ir/types.hh"
#include "support/rng.hh"

namespace fits::testgen {

using ir::Operand;
using ir::Stmt;

constexpr ir::Addr kBlockBase = 0x10000;
constexpr ir::Addr kBlockStride = 0x100;
constexpr ir::TmpId kTmpPool = 10;

/**
 * A random function of up to eight blocks. Temporaries come from a
 * small pool, so they are redefined and read across blocks; addresses
 * come from a small pool of constants (plus temporaries, mostly not
 * constant), so loads and stores alias; branch and jump targets include
 * the entry. Half the functions have no unknown-address stores and
 * half have no calls, which keep the unknown memory cell clean enough
 * for the constant cells' overwrites to show in the masks.
 */
inline ir::Function
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

} // namespace fits::testgen

#endif // FITS_TESTS_RANDOM_IR_HH_
