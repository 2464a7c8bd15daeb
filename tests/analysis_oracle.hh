/** @file The per-function analysis chain as it was before its flat
 * rewrite: hash-map block lookups, vector-per-path UCSE states, a
 * vector-per-block CFG, a recursive dominator/loop pass, hash-map
 * constant temporaries, and a nested per-block dependence table. The
 * production chain (analysis::FunctionAnalysis) must reproduce every
 * artifact of it exactly; tests/test_analysis_oracle.cc compares them.
 *
 * The recursive post-order here overflows a thread stack on very deep
 * block chains, so callers keep chains to a few thousand blocks. */

#ifndef FITS_TESTS_ANALYSIS_ORACLE_HH_
#define FITS_TESTS_ANALYSIS_ORACLE_HH_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/loops.hh"
#include "analysis/params.hh"
#include "analysis/ucse.hh"
#include "binary/image.hh"
#include "ir/function.hh"
#include "ir/types.hh"

namespace fits::oracle::prev {

using analysis::AbsVal;
using analysis::LoopInfo;
using analysis::ParamInfo;
using analysis::UcseConfig;
using analysis::UcseResult;
using ir::Addr;
using ir::kNumArgRegs;
using ir::kNumRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

// ---- UCSE ------------------------------------------------------------

namespace detail {

struct PathState
{
    std::size_t block;
    std::vector<AbsVal> regs;
    std::vector<AbsVal> tmps;
};

inline AbsVal
evalOperand(const Operand &op, const PathState &state)
{
    if (op.isImm())
        return AbsVal::constant(op.imm);
    if (op.tmp < state.tmps.size())
        return state.tmps[op.tmp];
    return AbsVal::unknown();
}

inline void
recordTarget(std::unordered_map<Addr, std::vector<Addr>> &map, Addr site,
             Addr target)
{
    auto &targets = map[site];
    if (std::find(targets.begin(), targets.end(), target) ==
        targets.end()) {
        targets.push_back(target);
    }
}

} // namespace detail

/** The explorer with one heap-allocated register and temporary vector
 * per in-flight path. Fault injection is not modeled. */
inline UcseResult
exploreUcse(const bin::BinaryImage &image, const UcseConfig &config,
            const ir::Function &fn)
{
    using detail::evalOperand;
    using detail::PathState;
    using detail::recordTarget;
    UcseResult result;
    const std::size_t n = fn.blocks.size();
    result.reachedBlocks.assign(n, false);
    if (n == 0)
        return result;

    std::unordered_map<Addr, std::size_t> blockAt;
    for (std::size_t i = 0; i < n; ++i)
        blockAt[fn.blocks[i].addr] = i;

    PathState init;
    init.block = 0;
    init.regs.assign(kNumRegs, AbsVal::unknown());
    for (int i = 0; i < kNumArgRegs; ++i)
        init.regs[i] = AbsVal::argument(i);
    init.tmps.assign(fn.numTmps, AbsVal::unknown());

    std::vector<PathState> worklist;
    worklist.push_back(std::move(init));
    std::vector<std::size_t> visits(n, 0);

    std::size_t tick = 0;
    while (!worklist.empty()) {
        if (result.steps >= config.maxSteps) {
            result.budgetExhausted = true;
            break;
        }
        if (config.deadline.expiredCoarse(tick++)) {
            result.deadlineExpired = true;
            break;
        }
        PathState state = std::move(worklist.back());
        worklist.pop_back();

        if (visits[state.block] >= config.maxVisitsPerBlock)
            continue;
        ++visits[state.block];
        result.reachedBlocks[state.block] = true;

        const ir::BasicBlock &block = fn.blocks[state.block];
        bool fellThrough = true;
        bool pathEnded = false;

        for (std::size_t si = 0; si < block.stmts.size() && !pathEnded;
             ++si) {
            ++result.steps;
            const Stmt &stmt = block.stmts[si];
            const Addr stmtAddr = block.stmtAddr(si);

            switch (stmt.kind) {
              case StmtKind::Get:
                state.tmps[stmt.dst] = stmt.reg < state.regs.size()
                                           ? state.regs[stmt.reg]
                                           : AbsVal::unknown();
                break;
              case StmtKind::Put:
                if (stmt.reg < state.regs.size())
                    state.regs[stmt.reg] = evalOperand(stmt.a, state);
                break;
              case StmtKind::Const:
                state.tmps[stmt.dst] = AbsVal::constant(stmt.a.imm);
                break;
              case StmtKind::Binop: {
                const AbsVal lhs = evalOperand(stmt.a, state);
                const AbsVal rhs = evalOperand(stmt.b, state);
                if (lhs.isConst() && rhs.isConst()) {
                    state.tmps[stmt.dst] = AbsVal::constant(
                        ir::evalBinOp(stmt.op, lhs.value, rhs.value));
                } else {
                    state.tmps[stmt.dst] = AbsVal::unknown();
                }
                break;
              }
              case StmtKind::Load: {
                const AbsVal addr = evalOperand(stmt.a, state);
                AbsVal loaded = AbsVal::unknown();
                if (addr.isConst() && image.isRodata(addr.value)) {
                    if (auto word = image.readWord(addr.value))
                        loaded = AbsVal::constant(*word);
                }
                state.tmps[stmt.dst] = loaded;
                break;
              }
              case StmtKind::Store:
                break;
              case StmtKind::Call: {
                if (stmt.indirect) {
                    const AbsVal target = evalOperand(stmt.a, state);
                    if (target.isConst())
                        recordTarget(result.resolvedCalls, stmtAddr,
                                     target.value);
                }
                for (int r = 0; r < kNumArgRegs; ++r)
                    state.regs[r] = AbsVal::unknown();
                break;
              }
              case StmtKind::Branch: {
                const AbsVal cond = evalOperand(stmt.a, state);
                auto taken = blockAt.find(stmt.target);
                const bool haveTaken = taken != blockAt.end();
                if (cond.isConst() && cond.value != 0) {
                    if (haveTaken) {
                        PathState next = state;
                        next.block = taken->second;
                        worklist.push_back(std::move(next));
                    }
                    fellThrough = false;
                    pathEnded = true;
                } else if (!cond.isConst() && haveTaken) {
                    PathState next = state;
                    next.block = taken->second;
                    worklist.push_back(std::move(next));
                }
                break;
              }
              case StmtKind::Jump: {
                Addr target = stmt.target;
                bool haveTarget = !stmt.indirect;
                if (stmt.indirect) {
                    const AbsVal v = evalOperand(stmt.a, state);
                    if (v.isConst()) {
                        recordTarget(result.resolvedJumps, stmtAddr,
                                     v.value);
                        target = v.value;
                        haveTarget = true;
                    }
                }
                if (haveTarget) {
                    auto it = blockAt.find(target);
                    if (it != blockAt.end()) {
                        PathState next = state;
                        next.block = it->second;
                        worklist.push_back(std::move(next));
                    }
                }
                fellThrough = false;
                pathEnded = true;
                break;
              }
              case StmtKind::Ret:
                fellThrough = false;
                pathEnded = true;
                break;
            }
        }

        if (fellThrough && state.block + 1 < n) {
            PathState next = std::move(state);
            next.block += 1;
            worklist.push_back(std::move(next));
        }
    }
    return result;
}

// ---- CFG -------------------------------------------------------------

/** One successor and one predecessor vector per block. */
class Cfg
{
  public:
    static Cfg
    build(const ir::Function &fn,
          const std::unordered_map<Addr, std::vector<Addr>>
              *resolvedTargets = nullptr)
    {
        Cfg cfg;
        const std::size_t n = fn.blocks.size();
        cfg.succs_.resize(n);
        cfg.preds_.resize(n);

        std::unordered_map<Addr, std::size_t> blockAt;
        for (std::size_t i = 0; i < n; ++i)
            blockAt[fn.blocks[i].addr] = i;

        for (std::size_t i = 0; i < n; ++i) {
            const ir::BasicBlock &block = fn.blocks[i];
            for (const auto &stmt : block.stmts) {
                if (stmt.kind != StmtKind::Branch)
                    continue;
                auto it = blockAt.find(stmt.target);
                if (it != blockAt.end())
                    cfg.addEdge(i, it->second);
            }
            const Stmt *term = block.terminator();
            if (term == nullptr) {
                if (i + 1 < n)
                    cfg.addEdge(i, i + 1);
                continue;
            }
            if (term->kind == StmtKind::Jump) {
                if (!term->indirect) {
                    auto it = blockAt.find(term->target);
                    if (it != blockAt.end())
                        cfg.addEdge(i, it->second);
                } else if (resolvedTargets != nullptr) {
                    const Addr stmtAddr =
                        block.stmtAddr(block.stmts.size() - 1);
                    auto rt = resolvedTargets->find(stmtAddr);
                    if (rt != resolvedTargets->end()) {
                        for (Addr target : rt->second) {
                            auto it = blockAt.find(target);
                            if (it != blockAt.end())
                                cfg.addEdge(i, it->second);
                        }
                    }
                }
            }
        }
        return cfg;
    }

    std::size_t numBlocks() const { return succs_.size(); }
    std::size_t entry() const { return 0; }

    const std::vector<std::size_t> &
    succs(std::size_t block) const
    {
        return succs_[block];
    }

    const std::vector<std::size_t> &
    preds(std::size_t block) const
    {
        return preds_[block];
    }

    std::vector<bool>
    reachable() const
    {
        std::vector<bool> seen(numBlocks(), false);
        if (numBlocks() == 0)
            return seen;
        std::vector<std::size_t> stack = {entry()};
        seen[entry()] = true;
        while (!stack.empty()) {
            const std::size_t b = stack.back();
            stack.pop_back();
            for (std::size_t s : succs_[b]) {
                if (!seen[s]) {
                    seen[s] = true;
                    stack.push_back(s);
                }
            }
        }
        return seen;
    }

    std::size_t
    numEdges() const
    {
        std::size_t n = 0;
        for (const auto &out : succs_)
            n += out.size();
        return n;
    }

  private:
    void
    addEdge(std::size_t from, std::size_t to)
    {
        auto &out = succs_[from];
        if (std::find(out.begin(), out.end(), to) != out.end())
            return;
        out.push_back(to);
        preds_[to].push_back(from);
    }

    std::vector<std::vector<std::size_t>> succs_;
    std::vector<std::vector<std::size_t>> preds_;
};

// ---- Dominators and loops --------------------------------------------

namespace detail {

inline void
postorder(const Cfg &cfg, std::size_t block, std::vector<bool> &seen,
          std::vector<std::size_t> &order)
{
    seen[block] = true;
    for (std::size_t s : cfg.succs(block)) {
        if (!seen[s])
            postorder(cfg, s, seen, order);
    }
    order.push_back(block);
}

} // namespace detail

/** Recursive RPO, the Cooper/Harvey/Kennedy fixpoint, a dominance test
 * per edge that walks the idom chain, and a fresh visited vector per
 * natural-loop body walk. */
inline LoopInfo
analyzeLoops(const Cfg &cfg, const ir::Function &fn)
{
    const std::size_t n = cfg.numBlocks();
    LoopInfo info;
    info.idom.assign(n, LoopInfo::npos);
    info.inLoop.assign(n, false);
    info.controlsLoop.assign(n, false);
    if (n == 0)
        return info;

    std::vector<bool> seen(n, false);
    std::vector<std::size_t> order;
    order.reserve(n);
    detail::postorder(cfg, cfg.entry(), seen, order);
    std::vector<std::size_t> rpoIndex(n, LoopInfo::npos);
    {
        std::size_t idx = 0;
        for (auto it = order.rbegin(); it != order.rend(); ++it)
            rpoIndex[*it] = idx++;
    }

    auto intersect = [&](std::size_t a, std::size_t b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = info.idom[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = info.idom[b];
        }
        return a;
    };

    info.idom[cfg.entry()] = cfg.entry();
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const std::size_t b = *it;
            if (b == cfg.entry())
                continue;
            std::size_t newIdom = LoopInfo::npos;
            for (std::size_t p : cfg.preds(b)) {
                if (!seen[p] || info.idom[p] == LoopInfo::npos)
                    continue;
                newIdom =
                    newIdom == LoopInfo::npos ? p : intersect(p, newIdom);
            }
            if (newIdom != LoopInfo::npos && info.idom[b] != newIdom) {
                info.idom[b] = newIdom;
                changed = true;
            }
        }
    }

    for (std::size_t a = 0; a < n; ++a) {
        if (!seen[a])
            continue;
        for (std::size_t h : cfg.succs(a)) {
            if (info.dominates(h, a))
                info.backEdges.emplace_back(a, h);
        }
    }

    for (const auto &[latch, header] : info.backEdges) {
        info.inLoop[header] = true;
        std::vector<std::size_t> stack = {latch};
        std::vector<bool> visited(n, false);
        visited[header] = true;
        while (!stack.empty()) {
            const std::size_t b = stack.back();
            stack.pop_back();
            if (visited[b])
                continue;
            visited[b] = true;
            info.inLoop[b] = true;
            for (std::size_t p : cfg.preds(b))
                stack.push_back(p);
        }
    }

    auto containsBranch = [&](std::size_t b) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == StmtKind::Branch)
                return true;
        }
        return false;
    };
    for (const auto &[latch, header] : info.backEdges) {
        if (containsBranch(header))
            info.controlsLoop[header] = true;
        if (containsBranch(latch))
            info.controlsLoop[latch] = true;
    }
    return info;
}

// ---- Constant temporaries --------------------------------------------

/** Hash maps of folded values and of multiply-defined temporaries. */
class TmpConstMap
{
  public:
    static TmpConstMap
    compute(const ir::Function &fn, const bin::BinaryImage *image)
    {
        TmpConstMap map;
        std::unordered_map<ir::TmpId, int> defCount;
        for (const auto &block : fn.blocks) {
            for (const auto &stmt : block.stmts) {
                if (stmt.definesTmp())
                    ++defCount[stmt.dst];
            }
        }
        for (const auto &[tmp, count] : defCount) {
            if (count > 1)
                map.conflicted_[tmp] = true;
        }
        auto eligible = [&map](ir::TmpId t) {
            auto it = map.conflicted_.find(t);
            return it == map.conflicted_.end() || !it->second;
        };

        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto &block : fn.blocks) {
                for (const auto &stmt : block.stmts) {
                    if (!stmt.definesTmp() || !eligible(stmt.dst) ||
                        map.values_.count(stmt.dst) != 0) {
                        continue;
                    }
                    switch (stmt.kind) {
                      case StmtKind::Const:
                        map.values_[stmt.dst] = stmt.a.imm;
                        changed = true;
                        break;
                      case StmtKind::Binop: {
                        auto lhs = map.valueOf(stmt.a);
                        auto rhs = map.valueOf(stmt.b);
                        if (lhs && rhs) {
                            map.values_[stmt.dst] =
                                ir::evalBinOp(stmt.op, *lhs, *rhs);
                            changed = true;
                        }
                        break;
                      }
                      case StmtKind::Load: {
                        auto addr = map.valueOf(stmt.a);
                        if (addr && image != nullptr &&
                            image->isRodata(*addr)) {
                            if (auto word = image->readWord(*addr)) {
                                map.values_[stmt.dst] = *word;
                                changed = true;
                            }
                        }
                        break;
                      }
                      default:
                        break;
                    }
                }
            }
        }
        return map;
    }

    std::optional<std::uint64_t>
    valueOf(ir::TmpId t) const
    {
        auto it = values_.find(t);
        if (it == values_.end())
            return std::nullopt;
        return it->second;
    }

    std::optional<std::uint64_t>
    valueOf(const Operand &op) const
    {
        if (op.isImm())
            return op.imm;
        return valueOf(op.tmp);
    }

    std::size_t knownCount() const { return values_.size(); }

  private:
    std::unordered_map<ir::TmpId, std::uint64_t> values_;
    std::unordered_map<ir::TmpId, bool> conflicted_;
};

// ---- Parameters ------------------------------------------------------

/** Round-robin must-analysis over every block, then a use scan over
 * the blocks reachable() marks. */
inline ParamInfo
inferParams(const Cfg &cfg, const ir::Function &fn)
{
    const std::size_t n = fn.blocks.size();
    ParamInfo info;
    if (n == 0)
        return info;
    constexpr std::uint8_t kAll = (1u << kNumArgRegs) - 1;

    std::vector<std::uint8_t> writtenIn(n, kAll);
    writtenIn[cfg.entry()] = 0;
    std::vector<std::uint8_t> writeMask(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == StmtKind::Put && stmt.reg < kNumArgRegs)
                writeMask[b] |= static_cast<std::uint8_t>(1u << stmt.reg);
            if (stmt.kind == StmtKind::Call)
                writeMask[b] = kAll;
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b = 0; b < n; ++b) {
            const auto out =
                static_cast<std::uint8_t>(writtenIn[b] | writeMask[b]);
            for (std::size_t s : cfg.succs(b)) {
                const auto merged =
                    static_cast<std::uint8_t>(writtenIn[s] & out);
                if (merged != writtenIn[s]) {
                    writtenIn[s] = merged;
                    changed = true;
                }
            }
        }
    }

    const auto reachable = cfg.reachable();
    for (std::size_t b = 0; b < n; ++b) {
        if (!reachable[b])
            continue;
        std::uint8_t written = writtenIn[b];
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == StmtKind::Get && stmt.reg < kNumArgRegs) {
                const auto bit = static_cast<std::uint8_t>(1u << stmt.reg);
                if ((written & bit) == 0)
                    info.usedMask |= bit;
            } else if (stmt.kind == StmtKind::Put &&
                       stmt.reg < kNumArgRegs) {
                written |= static_cast<std::uint8_t>(1u << stmt.reg);
            } else if (stmt.kind == StmtKind::Call) {
                written = kAll;
            }
        }
    }
    for (int i = 0; i < kNumArgRegs; ++i) {
        if (info.usedMask & (1u << i))
            info.count = i + 1;
    }
    return info;
}

// ---- Parameter-mask dataflow -----------------------------------------

/** Masks nested [block][stmt]. */
struct FlowResult
{
    std::vector<std::vector<std::uint8_t>> stmtDeps;
    std::uint8_t branchDepMask = 0;
};

namespace detail {

using Mask = std::uint8_t;
constexpr std::uint32_t kAllMemory =
    std::numeric_limits<std::uint32_t>::max();

struct Layout
{
    std::uint32_t explicitBase = 0;
    std::uint32_t unknown = 0;
    std::uint32_t cellEnd = 0;
    std::uint32_t carried = 0;
    std::uint32_t total = 0;
    std::vector<std::uint32_t> tmpSlot;
    std::vector<std::uint32_t> memSlot;
    std::vector<std::size_t> blockStart;

    Layout(const ir::Function &fn, const TmpConstMap &consts)
    {
        const std::size_t n = fn.blocks.size();
        std::size_t numStmts = 0;
        std::size_t numRegs = kNumRegs;
        std::size_t numTmps = 0;
        std::vector<std::uint64_t> cells;
        blockStart.resize(n);
        for (std::size_t b = 0; b < n; ++b) {
            blockStart[b] = numStmts;
            numStmts += fn.blocks[b].stmts.size();
            for (const Stmt &stmt : fn.blocks[b].stmts) {
                numRegs = std::max<std::size_t>(numRegs, stmt.reg + 1u);
                if (stmt.definesTmp())
                    numTmps = std::max<std::size_t>(numTmps, stmt.dst + 1u);
                for (const Operand *op : {&stmt.a, &stmt.b}) {
                    if (op->isTmp())
                        numTmps =
                            std::max<std::size_t>(numTmps, op->tmp + 1u);
                }
                if (stmt.kind == StmtKind::Store) {
                    if (auto addr = consts.valueOf(stmt.a))
                        cells.push_back(*addr);
                }
            }
        }
        std::sort(cells.begin(), cells.end());
        cells.erase(std::unique(cells.begin(), cells.end()), cells.end());

        explicitBase = static_cast<std::uint32_t>(numRegs);
        unknown = explicitBase + kNumArgRegs;
        cellEnd = unknown + 1 + static_cast<std::uint32_t>(cells.size());

        std::vector<std::size_t> writer(numTmps, n);
        std::vector<char> isCarried(numTmps, 0);
        memSlot.assign(numStmts, unknown);
        for (std::size_t b = 0; b < n; ++b) {
            const auto &stmts = fn.blocks[b].stmts;
            for (std::size_t s = 0; s < stmts.size(); ++s) {
                const Stmt &stmt = stmts[s];
                for (const Operand *op : {&stmt.a, &stmt.b}) {
                    if (op->isTmp() && writer[op->tmp] != b)
                        isCarried[op->tmp] = 1;
                }
                if (stmt.definesTmp())
                    writer[stmt.dst] = b;
                if (stmt.kind != StmtKind::Load &&
                    stmt.kind != StmtKind::Store) {
                    continue;
                }
                std::uint32_t &slot = memSlot[blockStart[b] + s];
                if (auto addr = consts.valueOf(stmt.a)) {
                    const auto it = std::lower_bound(cells.begin(),
                                                     cells.end(), *addr);
                    if (it != cells.end() && *it == *addr) {
                        slot = unknown + 1 +
                               static_cast<std::uint32_t>(it -
                                                          cells.begin());
                    }
                } else if (stmt.kind == StmtKind::Load) {
                    slot = kAllMemory;
                }
            }
        }

        tmpSlot.resize(numTmps);
        std::uint32_t next = cellEnd;
        for (std::size_t t = 0; t < numTmps; ++t) {
            if (isCarried[t])
                tmpSlot[t] = next++;
        }
        carried = next;
        for (std::size_t t = 0; t < numTmps; ++t) {
            if (!isCarried[t])
                tmpSlot[t] = next++;
        }
        total = next;
    }
};

inline void
transfer(const Layout &layout, const ir::BasicBlock &block,
         std::size_t start, Mask *state, Mask *deps)
{
    const auto use = [&](const Operand &op) -> Mask {
        return op.isTmp() ? state[layout.tmpSlot[op.tmp]] : 0;
    };
    const auto defineReg = [&](ir::RegId reg, Mask mask) {
        state[reg] = mask;
        if (reg < kNumArgRegs)
            state[layout.explicitBase + reg] = mask;
    };
    for (std::size_t s = 0; s < block.stmts.size(); ++s) {
        const Stmt &stmt = block.stmts[s];
        Mask mask = 0;
        switch (stmt.kind) {
          case StmtKind::Get:
            mask = state[stmt.reg];
            state[layout.tmpSlot[stmt.dst]] = mask;
            break;
          case StmtKind::Put:
            mask = use(stmt.a);
            defineReg(stmt.reg, mask);
            break;
          case StmtKind::Const:
            state[layout.tmpSlot[stmt.dst]] = 0;
            break;
          case StmtKind::Binop:
            mask = use(stmt.a) | use(stmt.b);
            state[layout.tmpSlot[stmt.dst]] = mask;
            break;
          case StmtKind::Load: {
            mask = use(stmt.a) | state[layout.unknown];
            const std::uint32_t slot = layout.memSlot[start + s];
            if (slot != kAllMemory) {
                mask |= state[slot];
            } else {
                for (std::uint32_t c = layout.unknown + 1;
                     c < layout.cellEnd; ++c) {
                    mask |= state[c];
                }
            }
            state[layout.tmpSlot[stmt.dst]] = mask;
            break;
          }
          case StmtKind::Store: {
            mask = use(stmt.a) | use(stmt.b);
            const std::uint32_t slot = layout.memSlot[start + s];
            if (slot == layout.unknown)
                state[slot] |= mask;
            else
                state[slot] = mask;
            break;
          }
          case StmtKind::Call:
            for (int r = 0; r < kNumArgRegs; ++r)
                mask |= state[layout.explicitBase + r];
            if (stmt.indirect)
                mask |= use(stmt.a);
            defineReg(ir::kRetReg, mask);
            state[layout.unknown] |= mask;
            break;
          case StmtKind::Branch:
            mask = use(stmt.a);
            break;
          case StmtKind::Jump:
            if (stmt.indirect)
                mask = use(stmt.a);
            break;
          case StmtKind::Ret:
            mask = state[ir::kRetReg];
            break;
        }
        if (deps != nullptr)
            deps[s] = mask;
    }
}

inline std::vector<std::size_t>
visitOrder(const Cfg &cfg, std::size_t n)
{
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<char> seen(n, 0);
    std::vector<std::pair<std::size_t, std::size_t>> stack;
    seen[cfg.entry()] = 1;
    stack.emplace_back(cfg.entry(), 0);
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        const auto &succs = cfg.succs(b);
        if (next < succs.size()) {
            const std::size_t succ = succs[next++];
            if (!seen[succ]) {
                seen[succ] = 1;
                stack.emplace_back(succ, 0);
            }
        } else {
            order.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

} // namespace detail

/** The mask dataflow with a deque worklist over its own RPO. Returns
 * the block visits (worklist pops) through `visits` when given. Fault
 * injection and deadlines are not modeled. */
inline FlowResult
reachingDefs(const Cfg &cfg, const ir::Function &fn,
             const TmpConstMap &consts, int numParams,
             std::size_t *visits = nullptr)
{
    using detail::Mask;
    FlowResult result;
    const std::size_t n = fn.blocks.size();
    result.stmtDeps.resize(n);
    for (std::size_t b = 0; b < n; ++b)
        result.stmtDeps[b].assign(fn.blocks[b].stmts.size(), 0);
    if (n == 0)
        return result;

    const detail::Layout layout(fn, consts);
    const std::size_t width = layout.carried;
    std::vector<Mask> out(n * width, 0);
    std::vector<Mask> state(layout.total, 0);
    const auto loadIn = [&](std::size_t b) {
        std::fill_n(state.begin(), width, Mask{0});
        if (b == cfg.entry()) {
            for (int i = 0; i < kNumArgRegs && i < numParams; ++i)
                state[i] = static_cast<Mask>(1u << i);
        }
        for (std::size_t p : cfg.preds(b)) {
            const Mask *pout = out.data() + p * width;
            for (std::size_t k = 0; k < width; ++k)
                state[k] |= pout[k];
        }
    };

    const auto order = detail::visitOrder(cfg, n);
    std::deque<std::size_t> work(order.begin(), order.end());
    std::vector<char> queued(n, 0);
    for (std::size_t b : order)
        queued[b] = 1;
    while (!work.empty()) {
        const std::size_t b = work.front();
        work.pop_front();
        if (visits != nullptr)
            ++*visits;
        queued[b] = 0;
        loadIn(b);
        detail::transfer(layout, fn.blocks[b], layout.blockStart[b],
                         state.data(), nullptr);
        Mask *bout = out.data() + b * width;
        if (!std::equal(state.begin(), state.begin() + width, bout)) {
            std::copy_n(state.begin(), width, bout);
            for (std::size_t succ : cfg.succs(b)) {
                if (!queued[succ]) {
                    queued[succ] = 1;
                    work.push_back(succ);
                }
            }
        }
    }

    for (std::size_t b = 0; b < n; ++b) {
        loadIn(b);
        detail::transfer(layout, fn.blocks[b], layout.blockStart[b],
                         state.data(), result.stmtDeps[b].data());
        const auto &stmts = fn.blocks[b].stmts;
        for (std::size_t s = 0; s < stmts.size(); ++s) {
            if (stmts[s].kind == StmtKind::Branch)
                result.branchDepMask |= result.stmtDeps[b][s];
        }
    }
    return result;
}

// ---- The chain -------------------------------------------------------

struct FunctionAnalysis
{
    UcseResult ucse;
    Cfg cfg;
    LoopInfo loops;
    TmpConstMap consts;
    ParamInfo params;
    FlowResult flow;
    std::uint8_t loopDepMask = 0;
    /** Worklist pops of the mask dataflow. */
    std::size_t blockVisits = 0;

    static FunctionAnalysis
    analyze(const bin::BinaryImage &image, const ir::Function &fn,
            const UcseConfig &config = {})
    {
        FunctionAnalysis fa;
        fa.ucse = exploreUcse(image, config, fn);
        fa.cfg = Cfg::build(fn, &fa.ucse.resolvedJumps);
        fa.loops = analyzeLoops(fa.cfg, fn);
        fa.consts = TmpConstMap::compute(fn, &image);
        fa.params = inferParams(fa.cfg, fn);
        fa.flow = reachingDefs(fa.cfg, fn, fa.consts, fa.params.count,
                               &fa.blockVisits);
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            if (!fa.loops.controlsLoop[b])
                continue;
            const auto &stmts = fn.blocks[b].stmts;
            for (std::size_t s = 0; s < stmts.size(); ++s) {
                if (stmts[s].kind == StmtKind::Branch)
                    fa.loopDepMask |= fa.flow.stmtDeps[b][s];
            }
        }
        return fa;
    }
};

} // namespace fits::oracle::prev

#endif // FITS_TESTS_ANALYSIS_ORACLE_HH_
