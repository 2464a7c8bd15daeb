/** @file The Karonte engine taint::KaronteEngine must reproduce
 * exactly: path memory as node-based maps copied on every fork and
 * root, a per-run (block, stmt) -> sites hash index per function,
 * call-site roles looked up by name on every visited call, and
 * tainted-global readers found by rescanning every main function's
 * statements after each discovery round. No deadline, fault site or
 * metrics: the reference always runs to its step budgets. */

#ifndef FITS_TESTS_KARONTE_ORACLE_HH_
#define FITS_TESTS_KARONTE_ORACLE_HH_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/program_analysis.hh"
#include "analysis/ucse.hh"
#include "taint/common.hh"
#include "taint/karonte.hh"
#include "taint/labels.hh"

namespace fits::oracle {

namespace karonte_detail {

using analysis::AbsVal;
using analysis::FnId;
using analysis::ProgramAnalysis;
using ir::Addr;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;
using taint::Alert;
using taint::KaronteEngine;
using taint::kPointerSeedRange;
using taint::LabelTable;
using taint::SinkSpec;
using taint::TaintSource;
using taint::buildLabelTable;
using taint::isSystemDataKey;
using taint::sinkByName;

using Mask = std::uint64_t;
using CellKey = std::uint64_t;

inline CellKey
cellKey(std::size_t imageIdx, Addr addr)
{
    return (static_cast<CellKey>(imageIdx) << 48) | addr;
}

inline bool
isMemoryWriter(const std::string &name)
{
    static const std::unordered_set<std::string> writers = {
        "strcpy", "strncpy", "strcat", "strncat", "memcpy",
        "memmove", "sprintf", "snprintf",
    };
    return writers.count(name) != 0;
}

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

inline bool
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
    std::vector<Value> tmps;
};

struct PathState
{
    std::vector<Frame> frames;
    Value regs[ir::kNumRegs];
    /** Path-local memory taint (strong updates along the path). */
    std::map<CellKey, Mask> memTaint;
    Mask memUnknown = 0;
    /** Labels that appeared in a branch condition: constrained data. */
    Mask checkedMask = 0;
};

struct Engine
{
    const ProgramAnalysis &pa;
    const KaronteEngine::Config &config;
    const std::vector<TaintSource> &sources;
    LabelTable labelTable;

    std::unordered_map<const bin::BinaryImage *, std::size_t> imageIdx;
    std::unordered_map<std::string, std::size_t> ctsByName;
    std::unordered_map<FnId, std::size_t> itsByFn;
    std::vector<std::unordered_map<std::uint64_t,
                                   std::vector<std::size_t>>>
        siteIndex;
    std::unordered_map<std::size_t, Mask> itsSiteLabel;

    /** Cross-root (phase-handoff) memory taint, monotone. */
    std::map<CellKey, Mask> committedCells;

    std::map<std::pair<std::size_t, Addr>, Alert> alerts;
    std::size_t totalSteps = 0;
    /** Paths pushed onto an exploration stack (branch and call-target
     * forks) — the path-explosion signal the metrics export. */
    std::size_t forkedPaths = 0;
    /** Current whole-binary budget; raised for the ITS phase. */
    std::size_t budgetLimit = 0;
    bool budgetExhausted = false;

    Engine(const ProgramAnalysis &pa_,
           const KaronteEngine::Config &config_,
           const std::vector<TaintSource> &sources_)
        : pa(pa_), config(config_), sources(sources_)
    {
        labelTable = buildLabelTable(sources);
        siteIndex.resize(pa.linked->fnCount());

        std::size_t nImages = 0;
        for (FnId id = 0; id < pa.linked->fnCount(); ++id) {
            const auto *image = pa.linked->fn(id).image;
            if (imageIdx.emplace(image, nImages).second)
                ++nImages;
        }
        for (std::size_t i = 0; i < sources.size(); ++i) {
            if (sources[i].kind == TaintSource::Kind::Cts) {
                ctsByName[sources[i].name] = i;
            } else {
                auto fnId = pa.linked->fnIdOf(&pa.linked->mainImage(),
                                              sources[i].entry);
                if (fnId)
                    itsByFn[*fnId] = i;
            }
        }
        const auto &sites = pa.callGraph.sites();
        for (std::size_t s = 0; s < sites.size(); ++s) {
            const auto &site = sites[s];
            const std::uint64_t key =
                (static_cast<std::uint64_t>(site.blockIdx) << 32) |
                site.stmtIdx;
            siteIndex[site.caller][key].push_back(s);
        }
    }

    std::size_t
    imageOf(FnId id) const
    {
        return imageIdx.at(pa.linked->fn(id).image);
    }

    Mask
    itsLabelAt(std::size_t siteIdx, std::size_t sourceIdx)
    {
        auto it = itsSiteLabel.find(siteIdx);
        if (it != itsSiteLabel.end())
            return it->second;
        const auto &site = pa.callGraph.sites()[siteIdx];
        const auto &callerFa = pa.fn(site.caller);
        const auto tracker = callerFa.backtracker();
        bool system = false;
        for (std::uint64_t value :
             tracker.resolveArg(site.blockIdx, site.stmtIdx, 0)) {
            if (auto s = tracker.classifyString(value)) {
                if (isSystemDataKey(s->text)) {
                    system = true;
                    break;
                }
            }
        }
        const auto &bits = labelTable.bySource[sourceIdx];
        const Mask label = system && bits.systemBit != 0
                               ? bits.systemBit
                               : bits.userBit;
        itsSiteLabel[siteIdx] = label;
        return label;
    }

    void
    recordAlert(FnId inFn, Addr sinkSite, const SinkSpec &sink,
                Mask mask)
    {
        if (mask == 0)
            return;
        const auto key = std::make_pair(imageOf(inFn), sinkSite);
        auto it = alerts.find(key);
        if (it == alerts.end()) {
            Alert alert;
            alert.sinkSite = sinkSite;
            alert.sinkName = sink.name;
            alert.vclass = sink.vclass;
            alert.labelMask = mask;
            alert.inFunction = pa.linked->fn(inFn).fn->entry;
            alert.imageIndex = key.first;
            alert.hasUserDataLabel = labelTable.hasUserData(mask);
            alerts.emplace(key, std::move(alert));
        } else {
            it->second.labelMask |= mask;
            it->second.hasUserDataLabel =
                labelTable.hasUserData(it->second.labelMask);
        }
    }

    void
    commitCell(CellKey key, Mask mask)
    {
        if (mask != 0)
            committedCells[key] |= mask;
    }

    /** Explore all paths from the entry of `root`, respecting both
     * the per-root and the whole-binary step budgets. */
    void
    exploreRoot(FnId root)
    {
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
        Frame frame;
        frame.fn = root;
        frame.tmps.assign(pa.fn(root).fn->numTmps, Value{});
        init.frames.push_back(std::move(frame));
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

            auto evalOp = [&](const Operand &op) -> Value {
                if (op.isImm())
                    return {AbsVal::constant(op.imm), 0};
                if (op.tmp < path.frames.back().tmps.size())
                    return path.frames.back().tmps[op.tmp];
                return {};
            };

            switch (stmt.kind) {
              case StmtKind::Get:
                frame.tmps[stmt.dst] = path.regs[stmt.reg];
                ++frame.stmt;
                break;
              case StmtKind::Put:
                path.regs[stmt.reg] = evalOp(stmt.a);
                ++frame.stmt;
                break;
              case StmtKind::Const:
                frame.tmps[stmt.dst] = {AbsVal::constant(stmt.a.imm),
                                        0};
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
                frame.tmps[stmt.dst] = out;
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
                    auto cell = path.memTaint.find(
                        cellKey(imageOf(frame.fn), addr.val.value));
                    if (cell != path.memTaint.end())
                        out.taint |= cell->second;
                }
                frame.tmps[stmt.dst] = out;
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
                    path.memTaint[key] = value.taint;
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
        path.frames.pop_back();
        // r0 keeps the callee's return value/taint; the caller frame
        // resumes at its stored statement index.
    }

    void
    handleCall(PathState &path, std::vector<PathState> &stack,
               Addr stmtAddr)
    {
        (void)stmtAddr;
        Frame &frame = path.frames.back();
        const FnId caller = frame.fn;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(frame.block) << 32) |
            frame.stmt;
        ++frame.stmt; // resume after the call in all outcomes

        auto sitesIt = siteIndex[caller].find(key);
        const Mask argUnion = path.regs[0].taint | path.regs[1].taint |
                              path.regs[2].taint | path.regs[3].taint;

        if (sitesIt == siteIndex[caller].end()) {
            // Unresolved indirect call: the data flow is interrupted.
            path.regs[0] = Value{};
            path.regs[1] = path.regs[2] = path.regs[3] = Value{};
            return;
        }

        // Collect descend targets; model imports/sources in place.
        std::vector<std::pair<std::size_t, FnId>> descendTargets;
        Mask retTaint = 0;
        bool modeled = false;

        for (std::size_t siteIdx : sitesIt->second) {
            const auto &site = pa.callGraph.sites()[siteIdx];
            const std::string &name = site.target.name;

            if (const SinkSpec *sink = sinkByName(name)) {
                Mask hit = 0;
                for (int arg : sink->taintedArgs) {
                    if (arg >= 0 && arg < ir::kNumArgRegs)
                        hit |= path.regs[arg].taint;
                }
                hit &= ~path.checkedMask;
                recordAlert(caller, stmtAddr, *sink, hit);
                modeled = true;
            }

            auto cts = name.empty() ? ctsByName.end()
                                    : ctsByName.find(name);
            if (cts != ctsByName.end()) {
                const TaintSource &src = sources[cts->second];
                const Mask label =
                    labelTable.bySource[cts->second].userBit;
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
                            path.memTaint[cell] |= label;
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
                auto its = itsByFn.find(callee);
                if (its != itsByFn.end()) {
                    // ITS source: apply the verified taint origin and
                    // do not descend — this is how ITSs shorten the
                    // explored path.
                    retTaint |= itsLabelAt(siteIdx, its->second);
                    modeled = true;
                    continue;
                }
                if (static_cast<int>(path.frames.size()) <
                    config.maxCallDepth) {
                    descendTargets.emplace_back(siteIdx, callee);
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
                if (isMemoryWriter(name)) {
                    const Mask srcMask = path.regs[1].taint |
                                         path.regs[2].taint |
                                         path.regs[3].taint;
                    const Value &dest = path.regs[0];
                    if (dest.val.isConst()) {
                        const CellKey cell = cellKey(
                            imageOf(caller), dest.val.value);
                        path.memTaint[cell] = srcMask;
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
                Frame callee;
                callee.fn = descendTargets[k].second;
                callee.tmps.assign(
                    pa.fn(callee.fn).fn->numTmps, Value{});
                forked.frames.push_back(std::move(callee));
                stack.push_back(std::move(forked));
                ++forkedPaths;
            }
            Frame callee;
            callee.fn = descendTargets[0].second;
            callee.tmps.assign(pa.fn(callee.fn).fn->numTmps, Value{});
            path.frames.push_back(std::move(callee));
            return;
        }

        // Stayed in the caller: apply the modeled return effect.
        path.regs[0].val = AbsVal::unknown();
        path.regs[0].taint = modeled ? retTaint : 0;
        path.regs[1] = path.regs[2] = path.regs[3] = Value{};
    }
};

} // namespace karonte_detail

/** What the reference run reports: the engine's report plus the work
 * counters taint::KaronteEngine exports as metrics. */
struct KaronteOracleResult
{
    taint::TaintReport report;
    std::size_t phaseASteps = 0;
    std::size_t phaseBSteps = 0;
    std::size_t forkedPaths = 0;
};

/**
 * Karonte with the reference data structures: CTS-rooted phases under
 * the vanilla budget, then ITS-rooted phases under the extra slice,
 * each phase followed by a rescan for readers of tainted globals.
 */
inline KaronteOracleResult
referenceKaronte(const analysis::ProgramAnalysis &pa,
                 const std::vector<taint::TaintSource> &sources,
                 const taint::KaronteEngine::Config &config = {})
{
    using namespace karonte_detail;
    Engine engine(pa, config, sources);

    // Roots: functions containing a source site (CTS import call or
    // ITS call) — Karonte's border-function seeding. The CTS-rooted
    // phases run first, to the same budget as a vanilla run, so the
    // ITS-augmented run's findings are a superset of the vanilla
    // run's; ITS roots then spend only the extra budget slice.
    std::set<FnId> queued;
    std::vector<FnId> queue;
    auto enqueue = [&](FnId id) {
        if (queued.insert(id).second)
            queue.push_back(id);
    };

    // Discover tainted-global readers and queue them (Karonte's
    // data-key propagation across shared memory).
    auto queueCellReaders = [&]() {
        for (FnId id = 0; id < pa.linked->fnCount(); ++id) {
            if (!pa.linked->isMainFn(id) || queued.count(id) != 0)
                continue;
            const auto &fa = pa.fn(id);
            const std::size_t img = engine.imageOf(id);
            bool reads = false;
            for (const auto &block : fa.fn->blocks) {
                for (const auto &stmt : block.stmts) {
                    if (stmt.kind != StmtKind::Load)
                        continue;
                    if (auto addr = fa.consts.valueOf(stmt.a)) {
                        auto it = engine.committedCells.find(
                            cellKey(img, *addr));
                        if (it != engine.committedCells.end() &&
                            it->second != 0) {
                            reads = true;
                            break;
                        }
                    }
                }
                if (reads)
                    break;
            }
            if (reads)
                enqueue(id);
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
    engine.budgetLimit = config.maxTotalSteps;
    for (const auto &site : pa.callGraph.sites()) {
        if (!pa.linked->isMainFn(site.caller))
            continue;
        const std::string &name = site.target.name;
        if (!name.empty() && engine.ctsByName.count(name) != 0)
            enqueue(site.caller);
    }
    runPhases();
    const std::size_t phaseASteps = engine.totalSteps;

    // Phase B: ITS roots under the extra budget slice (relative to
    // what phase A actually consumed — the vanilla cap is a limit,
    // not a quota).
    engine.budgetLimit =
        engine.totalSteps + config.maxItsExtraSteps;
    queue.clear();
    for (const auto &site : pa.callGraph.sites()) {
        if (!pa.linked->isMainFn(site.caller))
            continue;
        if (site.resolvesToFunction() &&
            engine.itsByFn.count(site.target.fn) != 0) {
            enqueue(site.caller);
        }
    }
    runPhases();

    KaronteOracleResult result;
    result.report.labels = engine.labelTable.labels;
    for (auto &[key, alert] : engine.alerts)
        result.report.alerts.push_back(std::move(alert));
    taint::sortAlerts(result.report.alerts);
    result.report.steps = engine.totalSteps;
    result.report.budgetExhausted = engine.budgetExhausted;
    result.phaseASteps = phaseASteps;
    result.phaseBSteps = engine.totalSteps - phaseASteps;
    result.forkedPaths = engine.forkedPaths;
    return result;
}

} // namespace fits::oracle

#endif // FITS_TESTS_KARONTE_ORACLE_HH_
