#include "validate.hh"

#include <algorithm>

#include "support/strings.hh"

namespace fits::ir {

namespace {

// Validation runs on every loaded binary, so the well-formed path
// allocates no strings: a statement's address is formatted only when
// a problem is reported there.

void
checkOperandTmps(const Operand &op, const Function &fn,
                 const std::vector<bool> &defined, Addr at,
                 std::vector<std::string> &problems)
{
    using support::format;
    if (!op.isTmp())
        return;
    if (op.tmp >= fn.numTmps) {
        problems.push_back(format("%s: tmp t%u >= numTmps %u",
                                  support::hex(at).c_str(), op.tmp,
                                  fn.numTmps));
    } else if (!defined[op.tmp]) {
        problems.push_back(format("%s: tmp t%u used but never defined",
                                  support::hex(at).c_str(), op.tmp));
    }
}

} // namespace

std::vector<std::string>
validateFunction(const Function &fn)
{
    using support::format;
    using support::hex;
    std::vector<std::string> problems;

    if (fn.blocks.empty()) {
        problems.push_back("function has no blocks");
        return problems;
    }
    if (fn.blocks.front().addr != fn.entry) {
        problems.push_back(format("entry block at %s != entry %s",
                                  hex(fn.blocks.front().addr).c_str(),
                                  hex(fn.entry).c_str()));
    }

    // Contiguous layout and block address set.
    std::vector<Addr> blockAddrs;
    blockAddrs.reserve(fn.blocks.size());
    std::size_t numStmts = 0;
    Addr cursor = fn.entry;
    for (const auto &block : fn.blocks) {
        if (block.addr != cursor) {
            problems.push_back(format("block %s not contiguous "
                                      "(expected %s)",
                                      hex(block.addr).c_str(),
                                      hex(cursor).c_str()));
        }
        if (block.stmts.empty())
            problems.push_back(format("block %s empty",
                                      hex(block.addr).c_str()));
        blockAddrs.push_back(block.addr);
        numStmts += block.stmts.size();
        cursor = block.addr + block.byteSize();
    }
    std::sort(blockAddrs.begin(), blockAddrs.end());

    // Checked first: it bounds the per-temporary table below by the
    // function's own size.
    if (fn.numTmps > numStmts) {
        problems.push_back(format("numTmps %u > statement count %zu",
                                  fn.numTmps, numStmts));
        return problems;
    }

    // Collect all defined tmps.
    std::vector<bool> defined(fn.numTmps, false);
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (!stmt.definesTmp())
                continue;
            if (stmt.dst >= fn.numTmps) {
                problems.push_back(format("defined tmp t%u >= "
                                          "numTmps %u",
                                          stmt.dst, fn.numTmps));
            } else {
                defined[stmt.dst] = true;
            }
        }
    }

    for (const auto &block : fn.blocks) {
        for (std::size_t i = 0; i < block.stmts.size(); ++i) {
            const Stmt &stmt = block.stmts[i];
            const Addr at = block.stmtAddr(i);

            if (stmt.isTerminator() && i + 1 != block.stmts.size()) {
                problems.push_back(hex(at) +
                                   ": terminator not last in block");
            }

            switch (stmt.kind) {
              case StmtKind::Get:
              case StmtKind::Put:
                if (stmt.reg >= kNumRegs)
                    problems.push_back(hex(at) + ": bad register id");
                break;
              default:
                break;
            }

            // Operand checks by kind.
            switch (stmt.kind) {
              case StmtKind::Put:
              case StmtKind::Load:
                checkOperandTmps(stmt.a, fn, defined, at, problems);
                break;
              case StmtKind::Binop:
              case StmtKind::Store:
                checkOperandTmps(stmt.a, fn, defined, at, problems);
                checkOperandTmps(stmt.b, fn, defined, at, problems);
                break;
              case StmtKind::Branch:
                checkOperandTmps(stmt.a, fn, defined, at, problems);
                break;
              case StmtKind::Call:
              case StmtKind::Jump:
                if (stmt.indirect)
                    checkOperandTmps(stmt.a, fn, defined, at, problems);
                break;
              default:
                break;
            }

            // Direct intra-function control flow must land on blocks.
            if ((stmt.kind == StmtKind::Branch ||
                 (stmt.kind == StmtKind::Jump && !stmt.indirect)) &&
                !std::binary_search(blockAddrs.begin(), blockAddrs.end(),
                                    stmt.target)) {
                problems.push_back(hex(at) + ": target " +
                                   hex(stmt.target) +
                                   " is not a block boundary");
            }
        }
    }

    return problems;
}

std::vector<std::string>
validateProgram(const Program &program)
{
    std::vector<std::string> problems;
    for (const auto &fn : program.functions()) {
        for (auto &p : validateFunction(fn)) {
            problems.push_back(support::hex(fn.entry) + ": " +
                               std::move(p));
        }
    }
    return problems;
}

} // namespace fits::ir
