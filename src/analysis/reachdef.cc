#include "reachdef.hh"

#include <algorithm>
#include <limits>

#include "analysis/scratch.hh"
#include "chaos/chaos.hh"
#include "ir/types.hh"
#include "obs/metrics.hh"

namespace fits::analysis {

namespace {

using ir::kNumArgRegs;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

using Mask = std::uint8_t;

/** memSlot of a Load from an unknown address: it reads every cell. */
constexpr std::uint32_t kAllMemory =
    std::numeric_limits<std::uint32_t>::max();

/**
 * Dense slot layout of one function's dataflow state:
 *
 *   [0, numRegs)              registers
 *   [explicitBase, +4)        argument registers, explicit writes only
 *   unknown                   the unknown memory cell
 *   (unknown, cellEnd)        one cell per constant Store address
 *   [cellEnd, carried)        temporaries some block reads before it
 *                             writes them
 *   [carried, total)          all other temporaries
 *
 * Only slots below `carried` flow between blocks. A temporary that no
 * block reads before writing is only ever read after a write in the
 * same block, so its slot is block-local scratch.
 */
struct Layout
{
    std::uint32_t explicitBase = 0;
    std::uint32_t unknown = 0;
    std::uint32_t cellEnd = 0;
    std::uint32_t carried = 0;
    std::uint32_t total = 0;
    /** Slot of each temporary, by TmpId. */
    std::vector<std::uint32_t> tmpSlot;
    /** For each Load/Store (by flattened statement index): its
     * constant cell, else `unknown`; kAllMemory for a Load from an
     * unknown address. */
    std::vector<std::uint32_t> memSlot;

    // Build-time buffers, kept to reuse their capacity.
    std::vector<std::uint64_t> cells;
    std::vector<std::size_t> writer;
    std::vector<char> isCarried;

    /** Lay out fn, whose flattened statement offsets are blockStart
     * (numBlocks + 1 entries). */
    void build(const ir::Function &fn, const TmpConstMap &consts,
               const std::vector<std::size_t> &blockStart);
};

void
Layout::build(const ir::Function &fn, const TmpConstMap &consts,
              const std::vector<std::size_t> &blockStart)
{
    const std::size_t n = fn.blocks.size();
    const std::size_t numStmts = blockStart[n];
    std::size_t numRegs = ir::kNumRegs;
    std::size_t numTmps = 0;
    cells.clear();
    for (std::size_t b = 0; b < n; ++b) {
        for (const Stmt &stmt : fn.blocks[b].stmts) {
            numRegs = std::max<std::size_t>(numRegs, stmt.reg + 1u);
            if (stmt.definesTmp())
                numTmps = std::max<std::size_t>(numTmps, stmt.dst + 1u);
            for (const Operand *op : {&stmt.a, &stmt.b}) {
                if (op->isTmp())
                    numTmps = std::max<std::size_t>(numTmps, op->tmp + 1u);
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

    // Which temporaries some block reads before writing (the block
    // that last wrote each one tells), and each Load/Store's cell.
    writer.assign(numTmps, n);
    isCarried.assign(numTmps, 0);
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
                const auto it =
                    std::lower_bound(cells.begin(), cells.end(), *addr);
                if (it != cells.end() && *it == *addr) {
                    slot = unknown + 1 +
                           static_cast<std::uint32_t>(it - cells.begin());
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

/** Per-thread buffers, reused across functions. */
struct Scratch
{
    Layout layout;
    /** OUT of every block, `carried` slots each. */
    std::vector<Mask> out;
    std::vector<Mask> state;
    /** FIFO worklist: a ring over the reachable blocks, which each sit
     * in it at most once at a time. */
    std::vector<std::size_t> ring;
    std::vector<char> queued;
};

thread_local Scratch t_scratch;

/**
 * Run one block's statements over `state` (sized layout.total, slots
 * below `carried` holding the block's IN), leaving its OUT there. When
 * `deps` is given, each statement's use mask is stored into it.
 */
void
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
                state[slot] |= mask; // may-aliases overwrite nothing
            else
                state[slot] = mask;
            break;
          }
          case StmtKind::Call:
            // Explicitly materialized arguments only.
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

} // namespace

ReachingDefs::Result
ReachingDefs::analyze(const Cfg &cfg, const ir::Function &fn,
                      const TmpConstMap &consts, int numParams,
                      support::Deadline deadline)
{
    const obs::ScopedTimer kernelTimer("kernel.reachdef");
    Result result;
    const std::size_t n = fn.blocks.size();
    result.blockStart.resize(n + 1);
    result.blockStart[0] = 0;
    for (std::size_t b = 0; b < n; ++b) {
        result.blockStart[b + 1] =
            result.blockStart[b] + fn.blocks[b].stmts.size();
    }
    result.stmtDeps.assign(result.blockStart[n], 0);

    // Fault injection behaves like a deadline that expired before the
    // first iteration: every vector is sized, every mask is zero.
    result.deadlineExpired = chaos::shouldInject("flow.reachdef");
    if (result.deadlineExpired || n == 0)
        return result;

    Scratch &scratch = t_scratch;
    const Layout &layout = scratch.layout;
    scratch.layout.build(fn, consts, result.blockStart);
    const std::size_t width = layout.carried;
    auto &out = scratch.out;
    auto &state = scratch.state;
    out.assign(n * width, 0);
    state.assign(layout.total, 0);

    // IN of block b = the entry's parameter seeds (for the entry) OR
    // the OUT of every predecessor.
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

    // Reverse-post-order worklist: each pop recomputes one block's OUT
    // from its predecessors and re-enqueues the successors whose input
    // just changed. The equations are monotone over a finite lattice,
    // so any order reaches the same least fixpoint; RPO reaches it in
    // near-minimal visits (one pass for acyclic regions). Blocks
    // unreachable from the entry are never visited: only other
    // unreachable blocks feed them, so no parameter reaches them and
    // their OUT keeps its all-zero start, which is the fixpoint.
    const auto order = cfg.rpo();
    auto &ring = scratch.ring;
    auto &queued = scratch.queued;
    ring.assign(order.begin(), order.end());
    queued.assign(n, 0);
    for (std::size_t b : order)
        queued[b] = 1;
    const std::size_t capacity = ring.size();
    std::size_t head = 0, size = capacity;
    std::size_t tick = 0;
    std::size_t visits = 0;
    // Count the visits and release any buffer this function grew
    // past the scratch bound.
    const auto finish = [&] {
        if (obs::enabled()) {
            static obs::Counter &counter = obs::Registry::instance().counter(
                "analysis.reachdef.block_visits");
            counter.add(visits);
        }
        Layout &l = scratch.layout;
        trimScratch(l.tmpSlot, l.memSlot, l.cells, l.writer, l.isCarried,
                    out, state, ring, queued);
    };
    while (size > 0) {
        if (deadline.expiredCoarse(tick++)) {
            result.deadlineExpired = true;
            finish();
            return result;
        }
        const std::size_t b = ring[head];
        head = head + 1 == capacity ? 0 : head + 1;
        --size;
        ++visits;
        queued[b] = 0;

        loadIn(b);
        transfer(layout, fn.blocks[b], result.blockStart[b],
                 state.data(), nullptr);
        Mask *bout = out.data() + b * width;
        if (!std::equal(state.begin(), state.begin() + width, bout)) {
            std::copy_n(state.begin(), width, bout);
            for (std::size_t succ : cfg.succs(b)) {
                if (!queued[succ]) {
                    queued[succ] = 1;
                    const std::size_t tail = head + size;
                    ring[tail < capacity ? tail : tail - capacity] = succ;
                    ++size;
                }
            }
        }
    }

    // One recording pass over the fixpoint's IN states.
    for (std::size_t b = 0; b < n; ++b) {
        loadIn(b);
        Mask *deps = result.stmtDeps.data() + result.blockStart[b];
        transfer(layout, fn.blocks[b], result.blockStart[b],
                 state.data(), deps);
        const auto &stmts = fn.blocks[b].stmts;
        for (std::size_t s = 0; s < stmts.size(); ++s) {
            if (stmts[s].kind == StmtKind::Branch)
                result.branchDepMask |= deps[s];
        }
    }
    finish();
    return result;
}

} // namespace fits::analysis
