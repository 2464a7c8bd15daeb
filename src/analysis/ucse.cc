#include "ucse.hh"

#include <algorithm>

#include "chaos/chaos.hh"
#include "analysis/scratch.hh"
#include "ir/types.hh"
#include "obs/metrics.hh"

namespace fits::analysis {

namespace {

using ir::kNumArgRegs;
using ir::kNumRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

/** Per-thread path stack and visit counts, reused across functions. */
struct Scratch
{
    /** One row per in-flight path: kNumRegs registers, then the
     * function's temporaries. */
    std::vector<AbsVal> rows;
    /** Block each row resumes at. */
    std::vector<std::size_t> rowBlock;
    std::vector<std::size_t> visits;
};

thread_local Scratch t_scratch;

void
recordTarget(std::unordered_map<Addr, std::vector<Addr>> &map,
             Addr site, Addr target)
{
    auto &targets = map[site];
    if (std::find(targets.begin(), targets.end(), target) ==
        targets.end()) {
        targets.push_back(target);
    }
}

} // namespace

UcseExplorer::UcseExplorer(const bin::BinaryImage &image,
                           UcseConfig config)
    : image_(image), config_(config)
{
}

UcseResult
UcseExplorer::explore(const ir::Function &fn) const
{
    return explore(fn, BlockIndex(fn));
}

UcseResult
UcseExplorer::explore(const ir::Function &fn,
                      const BlockIndex &blocks) const
{
    UcseResult result;
    const std::size_t n = fn.blocks.size();
    result.reachedBlocks.assign(n, false);
    if (n == 0)
        return result;

    if (chaos::shouldInject("ucse.explore")) {
        result.deadlineExpired = true;
        return result;
    }

    // Initial state: arguments symbolic (under-constrained), everything
    // else unknown.
    Scratch &s = t_scratch;
    const std::size_t numTmps = fn.numTmps;
    const std::size_t width = kNumRegs + numTmps;
    s.rows.assign(width, AbsVal::unknown());
    for (int i = 0; i < kNumArgRegs; ++i)
        s.rows[i] = AbsVal::argument(i);
    s.rowBlock.assign(1, 0);
    s.visits.assign(n, 0);

    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t tick = 0;
    while (!s.rowBlock.empty()) {
        if (result.steps >= config_.maxSteps) {
            result.budgetExhausted = true;
            break;
        }
        if (config_.deadline.expiredCoarse(tick++)) {
            result.deadlineExpired = true;
            break;
        }
        const std::size_t top = s.rowBlock.size() - 1;
        const std::size_t blockIdx = s.rowBlock[top];
        if (s.visits[blockIdx] >= config_.maxVisitsPerBlock) {
            s.rowBlock.pop_back();
            s.rows.resize(top * width);
            continue;
        }
        ++s.visits[blockIdx];
        result.reachedBlocks[blockIdx] = true;

        // The running path is row `top`; forks append rows above it,
        // which may move the buffer, so every access goes through
        // rows.data().
        const std::size_t base = top * width;
        const auto reg = [&](std::size_t r) -> AbsVal & {
            return s.rows[base + r];
        };
        const auto eval = [&](const Operand &op) {
            if (op.isImm())
                return AbsVal::constant(op.imm);
            if (op.tmp < numTmps)
                return s.rows[base + kNumRegs + op.tmp];
            return AbsVal::unknown();
        };
        const auto setTmp = [&](ir::TmpId t, AbsVal v) {
            if (t < numTmps)
                s.rows[base + kNumRegs + t] = v;
        };
        const auto fork = [&](std::size_t target) {
            const std::size_t at = s.rows.size();
            s.rows.resize(at + width);
            std::copy_n(s.rows.data() + base, width, s.rows.data() + at);
            s.rowBlock.push_back(target);
        };

        const ir::BasicBlock &block = fn.blocks[blockIdx];
        // Where the path itself goes next: the fall-through block by
        // default, a taken jump or branch target, or nowhere.
        std::size_t next = blockIdx + 1 < n ? blockIdx + 1 : kNone;
        bool pathEnded = false;

        for (std::size_t si = 0;
             si < block.stmts.size() && !pathEnded; ++si) {
            ++result.steps;
            const Stmt &stmt = block.stmts[si];
            const Addr stmtAddr = block.stmtAddr(si);

            switch (stmt.kind) {
              case StmtKind::Get:
                setTmp(stmt.dst, stmt.reg < kNumRegs ? reg(stmt.reg)
                                                     : AbsVal::unknown());
                break;
              case StmtKind::Put:
                if (stmt.reg < kNumRegs)
                    reg(stmt.reg) = eval(stmt.a);
                break;
              case StmtKind::Const:
                setTmp(stmt.dst, AbsVal::constant(stmt.a.imm));
                break;
              case StmtKind::Binop: {
                const AbsVal lhs = eval(stmt.a);
                const AbsVal rhs = eval(stmt.b);
                setTmp(stmt.dst,
                       lhs.isConst() && rhs.isConst()
                           ? AbsVal::constant(ir::evalBinOp(
                                 stmt.op, lhs.value, rhs.value))
                           : AbsVal::unknown());
                break;
              }
              case StmtKind::Load: {
                const AbsVal addr = eval(stmt.a);
                AbsVal loaded = AbsVal::unknown();
                if (addr.isConst() && image_.isRodata(addr.value)) {
                    // Only read-only memory is stable at runtime; this
                    // is what makes jump tables and function-pointer
                    // tables resolve.
                    if (auto word = image_.readWord(addr.value))
                        loaded = AbsVal::constant(*word);
                }
                setTmp(stmt.dst, loaded);
                break;
              }
              case StmtKind::Store:
                // Path-local stores are not modeled; later loads from
                // that address fall back to image bytes or Unknown.
                break;
              case StmtKind::Call: {
                if (stmt.indirect) {
                    const AbsVal target = eval(stmt.a);
                    if (target.isConst())
                        recordTarget(result.resolvedCalls, stmtAddr,
                                     target.value);
                }
                // Caller-saved registers are clobbered by the callee;
                // the return value is unconstrained.
                for (int r = 0; r < kNumArgRegs; ++r)
                    reg(r) = AbsVal::unknown();
                break;
              }
              case StmtKind::Branch: {
                // Conditional side exit: taken -> target block;
                // not taken -> continue with the next statement.
                const AbsVal cond = eval(stmt.a);
                const std::size_t taken = blocks.find(stmt.target);
                if (cond.isConst() && cond.value != 0) {
                    next = taken;
                    pathEnded = true;
                } else if (!cond.isConst() && taken != BlockIndex::npos) {
                    fork(taken);
                }
                // Constant-false or symbolic: keep executing in place.
                break;
              }
              case StmtKind::Jump: {
                next = kNone;
                if (!stmt.indirect) {
                    next = blocks.find(stmt.target);
                } else {
                    const AbsVal v = eval(stmt.a);
                    if (v.isConst()) {
                        recordTarget(result.resolvedJumps, stmtAddr,
                                     v.value);
                        next = blocks.find(v.value);
                    }
                }
                pathEnded = true;
                break;
              }
              case StmtKind::Ret:
                next = kNone;
                pathEnded = true;
                break;
            }
        }

        // The continuation goes on top of the stack, above any forks:
        // retarget row `top` when nothing was forked, else copy it up
        // and close the gap it leaves.
        const bool forked = s.rowBlock.size() > top + 1;
        if (next != kNone && !forked) {
            s.rowBlock[top] = next;
            continue;
        }
        if (next != kNone)
            fork(next);
        s.rows.erase(s.rows.begin() + base, s.rows.begin() + base + width);
        s.rowBlock.erase(s.rowBlock.begin() + top);
    }
    trimScratch(s.rows, s.rowBlock, s.visits);

    if (obs::enabled()) {
        static obs::Counter &steps =
            obs::Registry::instance().counter("analysis.ucse.steps");
        steps.add(result.steps);
    }
    return result;
}

} // namespace fits::analysis
