#include "karonte.hh"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "analysis/ucse.hh"
#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "support/deadline.hh"
#include "taint/site_table.hh"

namespace fits::taint {

namespace {

using analysis::AbsVal;
using analysis::FnId;
using analysis::ProgramAnalysis;
using ir::Addr;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

/**
 * Taint of constant-address memory cells: (cell, mask) pairs sorted by
 * cell, so copying a path's memory at a fork or a root is one
 * contiguous copy. An absent cell has mask 0.
 */
class CellMap
{
  public:
    Mask
    get(CellKey key) const
    {
        auto it = std::lower_bound(cells_.begin(), cells_.end(), key,
                                   before);
        return it != cells_.end() && it->first == key ? it->second : 0;
    }

    /** Strong update: the cell's mask becomes `mask`. */
    void
    set(CellKey key, Mask mask)
    {
        auto it = std::lower_bound(cells_.begin(), cells_.end(), key,
                                   before);
        if (it != cells_.end() && it->first == key)
            it->second = mask;
        else if (mask != 0)
            cells_.insert(it, {key, mask});
    }

    /** Weak update: `mask` is ORed into the cell. */
    void
    add(CellKey key, Mask mask)
    {
        if (mask == 0)
            return;
        auto it = std::lower_bound(cells_.begin(), cells_.end(), key,
                                   before);
        if (it != cells_.end() && it->first == key)
            it->second |= mask;
        else
            cells_.insert(it, {key, mask});
    }

  private:
    using Cell = std::pair<CellKey, Mask>;

    static bool
    before(const Cell &cell, CellKey key)
    {
        return cell.first < key;
    }

    std::vector<Cell> cells_;
};

/** A symbolic value with a taint mask. */
struct Value
{
    AbsVal val = AbsVal::unknown();
    Mask taint = 0;
    /** True if the value came from an order comparison (CmpLt/Le/...):
     * branching on it bounds the compared data, which is what makes a
     * range check count as sanitization. Equality/null checks do not
     * constrain lengths and must not sanitize. */
    bool fromOrderCmp = false;
};

bool
isOrderComparison(ir::BinOp op)
{
    return op == ir::BinOp::CmpLt || op == ir::BinOp::CmpLe ||
           op == ir::BinOp::CmpGt || op == ir::BinOp::CmpGe;
}

struct Frame
{
    FnId fn = 0;
    std::size_t block = 0;
    std::size_t stmt = 0;
    /** Where the frame's temporaries start in PathState::tmps. */
    std::size_t tmpBase = 0;
};

/** One explored path. Its frames' temporaries share one vector, each
 * frame's above its caller's, so a fork copies three flat vectors. */
struct PathState
{
    std::vector<Frame> frames;
    std::vector<Value> tmps;
    Value regs[ir::kNumRegs];
    /** Path-local memory taint (strong updates along the path). */
    CellMap memTaint;
    Mask memUnknown = 0;
    /** Labels that appeared in a branch condition: constrained data. */
    Mask checkedMask = 0;

    void
    pushFrame(FnId fn, std::size_t numTmps)
    {
        Frame frame;
        frame.fn = fn;
        frame.tmpBase = tmps.size();
        frames.push_back(frame);
        tmps.resize(tmps.size() + numTmps);
    }

    void
    popFrame()
    {
        tmps.resize(frames.back().tmpBase);
        frames.pop_back();
    }
};

struct Engine
{
    const ProgramAnalysis &pa;
    const KaronteEngine::Config &config;
    const std::vector<TaintSource> &sources;
    /** Labels, image indices, call-site roles and alerts. */
    SiteTable siteTable;

    /** Cross-root (phase-handoff) memory taint, monotone. */
    CellMap committedCells;

    std::size_t totalSteps = 0;
    /** Paths pushed onto an exploration stack (branch and call-target
     * forks) — the path-explosion signal the metrics export. */
    std::size_t forkedPaths = 0;
    /** Current whole-binary budget; raised for the ITS phase. */
    std::size_t budgetLimit = 0;
    bool budgetExhausted = false;
    /** Wall-clock budget shared by both phases. */
    support::Deadline deadline;
    bool deadlineExpired = false;
    std::size_t deadlineTick = 0;
    /** Scratch of handleCall: same-image callees to descend into. */
    std::vector<FnId> descendTargets;

    Engine(const ProgramAnalysis &pa_,
           const KaronteEngine::Config &config_,
           const std::vector<TaintSource> &sources_)
        : pa(pa_), config(config_), sources(sources_),
          siteTable(pa, sources)
    {
    }

    std::size_t
    imageOf(FnId id) const
    {
        return siteTable.imageOf(id);
    }

    void
    commitCell(CellKey key, Mask mask)
    {
        committedCells.add(key, mask);
    }

    /** Explore all paths from the entry of `root`, respecting both
     * the per-root and the whole-binary step budgets. */
    void
    exploreRoot(FnId root)
    {
        if (deadlineExpired)
            return;
        if (totalSteps >= budgetLimit) {
            budgetExhausted = true;
            return;
        }
        std::size_t steps = 0;
        // Visit caps shared across the root's paths: this is the
        // path-explosion bound (the "analysis time of each data flow"
        // limit the paper describes).
        std::unordered_map<std::uint64_t, std::size_t> visits;

        PathState init;
        init.pushFrame(root, pa.fn(root).fn->numTmps);
        for (int i = 0; i < ir::kNumArgRegs; ++i) {
            init.regs[i].val = AbsVal::argument(i);
            init.regs[i].taint = 0;
        }
        init.memTaint = committedCells;

        const std::size_t rootBudget = std::min(
            config.maxStepsPerEntry, budgetLimit - totalSteps);

        std::vector<PathState> stack;
        stack.push_back(std::move(init));

        while (!stack.empty()) {
            if (steps >= rootBudget) {
                budgetExhausted = true;
                break;
            }
            PathState path = std::move(stack.back());
            stack.pop_back();
            runPath(std::move(path), stack, visits, steps, rootBudget);
        }
        totalSteps += steps;
    }

    /** Execute one path until it ends or exceeds the budget; forked
     * continuations are pushed onto `stack`. One statement per loop
     * iteration, with the frame re-fetched each time (handleCall may
     * reallocate the frame vector). */
    void
    runPath(PathState path, std::vector<PathState> &stack,
            std::unordered_map<std::uint64_t, std::size_t> &visits,
            std::size_t &steps, std::size_t rootBudget)
    {
        while (!path.frames.empty()) {
            if (steps >= rootBudget) {
                budgetExhausted = true;
                return;
            }
            if (deadline.expiredCoarse(deadlineTick++)) {
                deadlineExpired = true;
                return;
            }
            Frame &frame = path.frames.back();
            const ir::Function &fn = *pa.fn(frame.fn).fn;

            if (frame.block >= fn.blocks.size()) {
                doReturn(path);
                continue;
            }
            const ir::BasicBlock &block = fn.blocks[frame.block];

            if (frame.stmt == 0) {
                const std::uint64_t vkey =
                    (static_cast<std::uint64_t>(frame.fn) << 32) |
                    frame.block;
                if (++visits[vkey] > config.maxVisitsPerBlock)
                    return; // loop bound / path-explosion cutoff
            }

            if (frame.stmt >= block.stmts.size()) {
                // Fell off the block end: implicit fallthrough.
                if (frame.block + 1 < fn.blocks.size()) {
                    frame.block += 1;
                    frame.stmt = 0;
                } else {
                    doReturn(path);
                }
                continue;
            }

            ++steps;
            const Stmt &stmt = block.stmts[frame.stmt];
            const Addr stmtAddr = block.stmtAddr(frame.stmt);

            // The frame is the top one, so its temporaries run to the
            // end of path.tmps.
            Value *tmps = path.tmps.data() + frame.tmpBase;
            const std::size_t numTmps = path.tmps.size() - frame.tmpBase;
            auto evalOp = [&](const Operand &op) -> Value {
                if (op.isImm())
                    return {AbsVal::constant(op.imm), 0};
                if (op.tmp < numTmps)
                    return tmps[op.tmp];
                return {};
            };

            switch (stmt.kind) {
              case StmtKind::Get:
                tmps[stmt.dst] = path.regs[stmt.reg];
                ++frame.stmt;
                break;
              case StmtKind::Put:
                path.regs[stmt.reg] = evalOp(stmt.a);
                ++frame.stmt;
                break;
              case StmtKind::Const:
                tmps[stmt.dst] = {AbsVal::constant(stmt.a.imm), 0};
                ++frame.stmt;
                break;
              case StmtKind::Binop: {
                const Value a = evalOp(stmt.a);
                const Value b = evalOp(stmt.b);
                Value out;
                if (a.val.isConst() && b.val.isConst()) {
                    out.val = AbsVal::constant(ir::evalBinOp(
                        stmt.op, a.val.value, b.val.value));
                }
                out.taint = a.taint | b.taint;
                out.fromOrderCmp = isOrderComparison(stmt.op);
                tmps[stmt.dst] = out;
                ++frame.stmt;
                break;
              }
              case StmtKind::Load: {
                const Value addr = evalOp(stmt.a);
                Value out;
                out.taint = addr.taint | path.memUnknown;
                if (addr.val.isConst()) {
                    const auto *image = pa.linked->fn(frame.fn).image;
                    // Value folding only from read-only memory:
                    // writable cells change at runtime.
                    if (image->isRodata(addr.val.value)) {
                        if (auto word =
                                image->readWord(addr.val.value)) {
                            out.val = AbsVal::constant(*word);
                        }
                    }
                    out.taint |= path.memTaint.get(
                        cellKey(imageOf(frame.fn), addr.val.value));
                }
                tmps[stmt.dst] = out;
                ++frame.stmt;
                break;
              }
              case StmtKind::Store: {
                const Value addr = evalOp(stmt.a);
                const Value value = evalOp(stmt.b);
                if (addr.val.isConst()) {
                    const CellKey key =
                        cellKey(imageOf(frame.fn), addr.val.value);
                    // Strong update: storing clean data over a tainted
                    // cell sanitizes it on this path.
                    path.memTaint.set(key, value.taint);
                    commitCell(key, value.taint);
                } else if (value.taint != 0) {
                    path.memUnknown |= value.taint;
                }
                ++frame.stmt;
                break;
              }
              case StmtKind::Call:
                // Advances the statement cursor itself and may push a
                // callee frame (invalidating `frame`).
                handleCall(path, stack, stmtAddr);
                break;
              case StmtKind::Branch: {
                // Conditional side exit: taken -> target block, not
                // taken -> next statement.
                const Value cond = evalOp(stmt.a);
                if (cond.fromOrderCmp)
                    path.checkedMask |= cond.taint;
                const std::size_t takenIdx =
                    fn.blockIndexAt(stmt.target);
                const bool haveTaken =
                    takenIdx != ir::Function::npos;
                if (cond.val.isConst()) {
                    // Path-sensitive pruning: constant conditions take
                    // exactly one side, so dead debug paths never
                    // alert.
                    if (cond.val.value != 0) {
                        if (haveTaken) {
                            frame.block = takenIdx;
                            frame.stmt = 0;
                        } else {
                            doReturn(path);
                        }
                    } else {
                        ++frame.stmt;
                    }
                } else {
                    if (haveTaken) {
                        PathState forked = path;
                        forked.frames.back().block = takenIdx;
                        forked.frames.back().stmt = 0;
                        stack.push_back(std::move(forked));
                        ++forkedPaths;
                    }
                    ++frame.stmt;
                }
                break;
              }
              case StmtKind::Jump: {
                std::size_t targetIdx = ir::Function::npos;
                if (!stmt.indirect) {
                    targetIdx = fn.blockIndexAt(stmt.target);
                } else {
                    const Value t = evalOp(stmt.a);
                    if (t.val.isConst())
                        targetIdx = fn.blockIndexAt(t.val.value);
                }
                if (targetIdx != ir::Function::npos) {
                    frame.block = targetIdx;
                    frame.stmt = 0;
                } else {
                    doReturn(path);
                }
                break;
              }
              case StmtKind::Ret:
                doReturn(path);
                break;
            }
        }
    }

    void
    doReturn(PathState &path)
    {
        path.popFrame();
        // r0 keeps the callee's return value/taint; the caller frame
        // resumes at its stored statement index.
    }

    /** Indices into pa.callGraph.sites() of the call at (block, stmt)
     * of `caller`: sitesOfCaller is ordered by (block, stmt), so they
     * are one contiguous run. */
    analysis::CallGraph::SiteRun
    sitesAt(FnId caller, std::size_t block, std::size_t stmt) const
    {
        const auto &all = pa.callGraph.sites();
        const auto mine = pa.callGraph.sitesOfCaller(caller);
        const auto pos = [&](std::size_t siteIdx) {
            return std::make_pair(all[siteIdx].blockIdx,
                                  all[siteIdx].stmtIdx);
        };
        const auto here = std::make_pair(block, stmt);
        const auto first = std::ranges::partition_point(
            mine.begin(), mine.end(),
            [&](std::size_t s) { return pos(s) < here; });
        const auto last = std::ranges::partition_point(
            first, mine.end(),
            [&](std::size_t s) { return pos(s) <= here; });
        return analysis::CallGraph::SiteRun(first, last);
    }

    void
    handleCall(PathState &path, std::vector<PathState> &stack,
               Addr stmtAddr)
    {
        Frame &frame = path.frames.back();
        const FnId caller = frame.fn;
        const auto callSites = sitesAt(caller, frame.block, frame.stmt);
        ++frame.stmt; // resume after the call in all outcomes

        const Mask argUnion = path.regs[0].taint | path.regs[1].taint |
                              path.regs[2].taint | path.regs[3].taint;

        if (callSites.empty()) {
            // Unresolved indirect call: the data flow is interrupted.
            path.regs[0] = Value{};
            path.regs[1] = path.regs[2] = path.regs[3] = Value{};
            return;
        }

        // Collect descend targets; model imports/sources in place.
        descendTargets.clear();
        Mask retTaint = 0;
        bool modeled = false;

        for (const std::size_t siteIdx : callSites) {
            const auto &site = pa.callGraph.sites()[siteIdx];
            const SiteRole &role = siteTable.role(siteIdx);

            if (role.sink != nullptr) {
                Mask hit = 0;
                for (int arg : role.sink->taintedArgs) {
                    if (arg >= 0 && arg < ir::kNumArgRegs)
                        hit |= path.regs[arg].taint;
                }
                hit &= ~path.checkedMask;
                siteTable.recordAlert(caller, stmtAddr, *role.sink, hit);
                modeled = true;
            }

            if (role.cts != kNoSource) {
                const TaintSource &src = sources[role.cts];
                const Mask label =
                    siteTable.labels().bySource[role.cts].userBit;
                if (src.origin == TaintSource::Origin::ReturnValue) {
                    retTaint |= label;
                } else if (src.pointerArg >= 0 &&
                           src.pointerArg < ir::kNumArgRegs) {
                    const Value &ptr = path.regs[src.pointerArg];
                    if (ptr.val.isConst()) {
                        for (Addr off = 0; off < kPointerSeedRange;
                             ++off) {
                            const CellKey cell =
                                cellKey(imageOf(caller),
                                        ptr.val.value + off);
                            path.memTaint.add(cell, label);
                            commitCell(cell, label);
                        }
                    } else {
                        path.memUnknown |= label;
                    }
                }
                modeled = true;
                continue;
            }

            if (site.resolvesToFunction() &&
                site.target.library.empty()) {
                const FnId callee = site.target.fn;
                if (role.its != kNoSource) {
                    // ITS source: apply the verified taint origin and
                    // do not descend — this is how ITSs shorten the
                    // explored path.
                    retTaint |= siteTable.itsLabelAt(siteIdx, role.its);
                    modeled = true;
                    continue;
                }
                if (static_cast<int>(path.frames.size()) <
                    config.maxCallDepth) {
                    descendTargets.push_back(callee);
                } else {
                    // Depth budget reached: approximate with a
                    // taint-through model.
                    retTaint |= argUnion;
                    modeled = true;
                }
                continue;
            }

            if (site.resolvesToFunction()) {
                // Library implementation: modeled (anchor semantics).
                retTaint |= argUnion;
                if (role.memoryWriter) {
                    const Mask srcMask = path.regs[1].taint |
                                         path.regs[2].taint |
                                         path.regs[3].taint;
                    const Value &dest = path.regs[0];
                    if (dest.val.isConst()) {
                        const CellKey cell = cellKey(
                            imageOf(caller), dest.val.value);
                        path.memTaint.set(cell, srcMask);
                        commitCell(cell, srcMask);
                    } else if (srcMask != 0) {
                        path.memUnknown |= srcMask;
                    }
                }
                modeled = true;
                continue;
            }

            // External import with no implementation.
            retTaint |= argUnion;
            modeled = true;
        }

        if (!descendTargets.empty()) {
            // Fork one path per additional target; descend into the
            // first on this path. Argument registers carry over.
            constexpr std::size_t kMaxTargets = 3;
            for (std::size_t k = 1;
                 k < descendTargets.size() && k < kMaxTargets; ++k) {
                PathState forked = path;
                forked.pushFrame(descendTargets[k],
                                 pa.fn(descendTargets[k]).fn->numTmps);
                stack.push_back(std::move(forked));
                ++forkedPaths;
            }
            path.pushFrame(descendTargets[0],
                           pa.fn(descendTargets[0]).fn->numTmps);
            return;
        }

        // Stayed in the caller: apply the modeled return effect.
        path.regs[0].val = AbsVal::unknown();
        path.regs[0].taint = modeled ? retTaint : 0;
        path.regs[1] = path.regs[2] = path.regs[3] = Value{};
    }
};

} // namespace

KaronteEngine::KaronteEngine()
    : config_()
{
}

KaronteEngine::KaronteEngine(Config config)
    : config_(config)
{
}

TaintReport
KaronteEngine::run(const ProgramAnalysis &pa,
                   const std::vector<TaintSource> &sources) const
{
    obs::ScopedTimer runSpan("taint/karonte");
    Engine engine(pa, config_, sources);
    if (config_.deadlineMs > 0.0)
        engine.deadline = support::Deadline::afterMs(config_.deadlineMs);
    if (chaos::shouldInject("taint.karonte"))
        engine.deadlineExpired = true;

    // Roots: functions containing a source site (CTS import call or
    // ITS call) — Karonte's border-function seeding. The CTS-rooted
    // phases run first, to the same budget as a vanilla run, so the
    // ITS-augmented run's findings are a superset of the vanilla
    // run's; ITS roots then spend only the extra budget slice.
    const std::size_t n = pa.linked->fnCount();
    std::vector<bool> queued(n, false);
    std::vector<FnId> queue;
    auto enqueue = [&](FnId id) {
        if (!queued[id]) {
            queued[id] = true;
            queue.push_back(id);
        }
    };

    // The cells each main function loads from a constant address,
    // gathered on the first discovery round: fn id's cells are
    // loadCells[loadStart[id], loadStart[id + 1]).
    std::vector<std::size_t> loadStart;
    std::vector<CellKey> loadCells;
    auto indexLoadCells = [&]() {
        loadStart.assign(n + 1, 0);
        for (FnId id = 0; id < n; ++id) {
            loadStart[id] = loadCells.size();
            if (!pa.linked->isMainFn(id))
                continue;
            const auto &fa = pa.fn(id);
            const std::size_t img = engine.imageOf(id);
            for (const auto &block : fa.fn->blocks) {
                for (const auto &stmt : block.stmts) {
                    if (stmt.kind != StmtKind::Load)
                        continue;
                    if (auto addr = fa.consts.valueOf(stmt.a))
                        loadCells.push_back(cellKey(img, *addr));
                }
            }
        }
        loadStart[n] = loadCells.size();
    };

    // Discover tainted-global readers and queue them (Karonte's
    // data-key propagation across shared memory).
    auto queueCellReaders = [&]() {
        if (loadStart.empty())
            indexLoadCells();
        for (FnId id = 0; id < n; ++id) {
            if (queued[id])
                continue;
            for (std::size_t i = loadStart[id]; i < loadStart[id + 1];
                 ++i) {
                if (engine.committedCells.get(loadCells[i]) != 0) {
                    enqueue(id);
                    break;
                }
            }
        }
    };

    auto runPhases = [&]() {
        std::size_t cursor = 0;
        for (int phase = 0; phase < 4; ++phase) {
            if (cursor == queue.size())
                break;
            while (cursor < queue.size())
                engine.exploreRoot(queue[cursor++]);
            queueCellReaders();
        }
        // Catch roots queued by the last discovery round.
        while (cursor < queue.size())
            engine.exploreRoot(queue[cursor++]);
    };

    // Phase A: CTS roots under the vanilla budget.
    engine.budgetLimit = config_.maxTotalSteps;
    const auto &sites = pa.callGraph.sites();
    for (std::size_t s = 0; s < sites.size(); ++s) {
        if (pa.linked->isMainFn(sites[s].caller) &&
            engine.siteTable.role(s).cts != kNoSource)
            enqueue(sites[s].caller);
    }
    runPhases();
    const std::size_t phaseASteps = engine.totalSteps;
    const bool phaseAExhausted = engine.budgetExhausted;

    // Phase B: ITS roots under the extra budget slice (relative to
    // what phase A actually consumed — the vanilla cap is a limit,
    // not a quota).
    engine.budgetLimit =
        engine.totalSteps + config_.maxItsExtraSteps;
    queue.clear();
    for (std::size_t s = 0; s < sites.size(); ++s) {
        if (pa.linked->isMainFn(sites[s].caller) &&
            engine.siteTable.role(s).its != kNoSource)
            enqueue(sites[s].caller);
    }
    runPhases();

    TaintReport report = engine.siteTable.takeReport();
    report.steps = engine.totalSteps;
    report.budgetExhausted = engine.budgetExhausted;
    report.deadlineExpired = engine.deadlineExpired;
    report.analysisMs = runSpan.stopMs();

    if (obs::enabled()) {
        obs::addCounter("taint.karonte.runs");
        obs::addCounter("taint.karonte.phase_a_steps", phaseASteps);
        obs::addCounter("taint.karonte.phase_b_steps",
                        engine.totalSteps - phaseASteps);
        obs::addCounter("taint.karonte.forked_paths",
                        engine.forkedPaths);
        obs::addCounter("taint.karonte.alerts",
                        report.alerts.size());
        if (phaseAExhausted)
            obs::addCounter("taint.karonte.phase_a_exhausted");
        if (engine.budgetExhausted)
            obs::addCounter("taint.karonte.budget_exhausted");
        if (engine.deadlineExpired)
            obs::addCounter("taint.karonte.deadline_expired");
    }
    return report;
}

} // namespace fits::taint
