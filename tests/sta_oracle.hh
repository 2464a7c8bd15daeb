/** @file The whole-program driver taint::StaEngine must reproduce
 * exactly: the same per-visit transfer function, scheduled by requeuing
 * every function whenever any summary or global cell changes, visited
 * in FnId order, followed by one layout-order collection sweep that
 * records the alerts. */

#ifndef FITS_TESTS_STA_ORACLE_HH_
#define FITS_TESTS_STA_ORACLE_HH_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/program_analysis.hh"
#include "taint/common.hh"
#include "taint/labels.hh"

namespace fits::oracle {

namespace sta_detail {

using analysis::FnId;
using analysis::ProgramAnalysis;
using ir::Addr;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;
using taint::Alert;
using taint::LabelTable;
using taint::SinkSpec;
using taint::TaintSource;

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

constexpr int kPassesPerFunction = 2;

struct FnState
{
    Mask paramIn[ir::kNumArgRegs] = {0, 0, 0, 0};
    Mask retOut = 0;
    Mask memOut = 0;
};

struct Engine
{
    const ProgramAnalysis &pa;
    const std::vector<TaintSource> &sources;
    LabelTable labelTable;

    std::vector<FnState> fnStates;
    std::unordered_map<CellKey, Mask> globalCells;
    Mask globalUnknown = 0;

    std::unordered_map<const bin::BinaryImage *, std::size_t> imageIdx;
    std::unordered_map<std::string, std::size_t> ctsByName;
    std::unordered_map<FnId, std::size_t> itsByFn;

    /** Per caller: (block,stmt) -> resolved call-site indices. */
    std::vector<std::unordered_map<std::uint64_t,
                                   std::vector<std::size_t>>>
        siteIndex;

    std::unordered_map<std::size_t, Mask> itsSiteLabel;

    std::size_t steps = 0;
    bool recording = false;
    std::map<std::pair<std::size_t, Addr>, Alert> alerts;

    Engine(const ProgramAnalysis &pa_,
           const std::vector<TaintSource> &sources_)
        : pa(pa_), sources(sources_)
    {
        labelTable = taint::buildLabelTable(sources);
        fnStates.resize(pa.linked->fnCount());
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
            if (site.indirect)
                continue;
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
                if (taint::isSystemDataKey(s->text)) {
                    system = true;
                    break;
                }
            }
        }
        const auto &bits = labelTable.bySource[sourceIdx];
        const Mask label =
            system && bits.systemBit != 0 ? bits.systemBit
                                          : bits.userBit;
        itsSiteLabel[siteIdx] = label;
        return label;
    }

    void
    recordAlert(FnId inFn, Addr sinkSite, const SinkSpec &sink,
                Mask mask)
    {
        if (!recording || mask == 0)
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

    /** One visit: two layout-order passes; true if the function's
     * summary, the global memory state, or a callee's paramIn
     * changed. */
    bool
    analyzeFunction(FnId id, std::deque<FnId> &worklist,
                    std::vector<bool> &queued)
    {
        const auto &fa = pa.fn(id);
        const ir::Function &fn = *fa.fn;
        FnState &state = fnStates[id];
        const std::size_t myImage = imageOf(id);

        bool externallyChanged = false;

        std::vector<Mask> tmps(fn.numTmps, 0);
        Mask regs[ir::kNumRegs] = {};
        std::unordered_map<CellKey, Mask> localMem;
        Mask localUnknown = 0;

        std::unordered_map<CellKey, Mask> pendingCells;
        Mask pendingUnknown = 0;

        auto maskOf = [&](const Operand &op) -> Mask {
            if (op.isImm())
                return 0;
            return op.tmp < tmps.size() ? tmps[op.tmp] : 0;
        };

        auto enqueue = [&](FnId callee) {
            if (!queued[callee]) {
                queued[callee] = true;
                worklist.push_back(callee);
            }
        };

        for (int pass = 0; pass < kPassesPerFunction; ++pass) {
            for (int i = 0; i < ir::kNumArgRegs; ++i)
                regs[i] |= state.paramIn[i];

            for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
                const auto &block = fn.blocks[b];
                for (std::size_t s = 0; s < block.stmts.size(); ++s) {
                    ++steps;
                    const Stmt &stmt = block.stmts[s];
                    switch (stmt.kind) {
                      case StmtKind::Get:
                        tmps[stmt.dst] = regs[stmt.reg];
                        break;
                      case StmtKind::Put:
                        regs[stmt.reg] = maskOf(stmt.a);
                        break;
                      case StmtKind::Const:
                        tmps[stmt.dst] = 0;
                        break;
                      case StmtKind::Binop:
                        tmps[stmt.dst] =
                            maskOf(stmt.a) | maskOf(stmt.b);
                        break;
                      case StmtKind::Load: {
                        Mask m = maskOf(stmt.a);
                        if (auto addr = fa.consts.valueOf(stmt.a)) {
                            const CellKey key =
                                cellKey(myImage, *addr);
                            auto lm = localMem.find(key);
                            if (lm != localMem.end()) {
                                m |= lm->second;
                            } else {
                                auto gm = globalCells.find(key);
                                if (gm != globalCells.end())
                                    m |= gm->second;
                            }
                            m |= localUnknown | globalUnknown;
                        } else {
                            m |= localUnknown | globalUnknown;
                            for (const auto &cell : localMem)
                                m |= cell.second;
                        }
                        tmps[stmt.dst] = m;
                        break;
                      }
                      case StmtKind::Store: {
                        const Mask value = maskOf(stmt.b);
                        const bool constValue =
                            fa.consts.valueOf(stmt.b).has_value() ||
                            stmt.b.isImm();
                        if (auto addr = fa.consts.valueOf(stmt.a)) {
                            const CellKey key =
                                cellKey(myImage, *addr);
                            localMem[key] = constValue ? 0 : value;
                            if (value != 0)
                                pendingCells[key] |= value;
                        } else {
                            localUnknown |= value;
                            pendingUnknown |= value;
                        }
                        break;
                      }
                      case StmtKind::Call:
                        handleCall(id, b, s, block.stmtAddr(s), fa,
                                   regs, localMem, localUnknown,
                                   pendingCells, pendingUnknown,
                                   enqueue);
                        break;
                      case StmtKind::Ret:
                        if (regs[ir::kRetReg] != 0 &&
                            (state.retOut | regs[ir::kRetReg]) !=
                                state.retOut) {
                            state.retOut |= regs[ir::kRetReg];
                            externallyChanged = true;
                        }
                        break;
                      default:
                        break;
                    }
                }
            }
        }

        if ((state.memOut | localUnknown) != state.memOut) {
            state.memOut |= localUnknown;
            externallyChanged = true;
        }

        for (const auto &[key, mask] : pendingCells) {
            Mask &cell = globalCells[key];
            if ((cell | mask) != cell) {
                cell |= mask;
                externallyChanged = true;
            }
        }
        if ((globalUnknown | pendingUnknown) != globalUnknown) {
            globalUnknown |= pendingUnknown;
            externallyChanged = true;
        }

        return externallyChanged;
    }

    template <typename Enqueue>
    void
    handleCall(FnId caller, std::size_t blockIdx, std::size_t stmtIdx,
               Addr stmtAddr, const analysis::FunctionAnalysis &fa,
               Mask regs[],
               std::unordered_map<CellKey, Mask> &localMem,
               Mask &localUnknown,
               std::unordered_map<CellKey, Mask> &pendingCells,
               Mask &pendingUnknown, const Enqueue &enqueue)
    {
        const std::size_t myImage = imageOf(caller);
        const std::uint64_t key =
            (static_cast<std::uint64_t>(blockIdx) << 32) | stmtIdx;
        auto sitesIt = siteIndex[caller].find(key);

        Mask retMask = 0;
        const Mask argUnion =
            regs[0] | regs[1] | regs[2] | regs[3];

        if (sitesIt != siteIndex[caller].end()) {
            for (std::size_t siteIdx : sitesIt->second) {
                const auto &site = pa.callGraph.sites()[siteIdx];
                const std::string &name = site.target.name;

                if (const SinkSpec *sink = taint::sinkByName(name)) {
                    Mask hit = 0;
                    for (int arg : sink->taintedArgs) {
                        if (arg >= 0 && arg < ir::kNumArgRegs)
                            hit |= regs[arg];
                    }
                    recordAlert(caller, stmtAddr, *sink, hit);
                }

                auto cts = name.empty() ? ctsByName.end()
                                        : ctsByName.find(name);
                if (cts != ctsByName.end()) {
                    const TaintSource &src = sources[cts->second];
                    const Mask label =
                        labelTable.bySource[cts->second].userBit;
                    if (src.origin == TaintSource::Origin::ReturnValue) {
                        retMask |= label;
                    } else {
                        const int argIdx = src.pointerArg;
                        bool resolved = false;
                        if (argIdx >= 0 && argIdx < ir::kNumArgRegs) {
                            const auto tracker = fa.backtracker();
                            for (std::uint64_t addr :
                                 tracker.resolveArg(blockIdx, stmtIdx,
                                                    argIdx)) {
                                for (Addr off = 0;
                                     off < taint::kPointerSeedRange;
                                     ++off) {
                                    const CellKey cell =
                                        cellKey(myImage, addr + off);
                                    localMem[cell] = label;
                                    pendingCells[cell] |= label;
                                }
                                resolved = true;
                            }
                        }
                        if (!resolved) {
                            localUnknown |= label;
                            pendingUnknown |= label;
                        }
                    }
                }

                if (site.resolvesToFunction() &&
                    site.target.library.empty()) {
                    const FnId callee = site.target.fn;
                    FnState &cs = fnStates[callee];
                    const int calleeParams =
                        pa.fn(callee).params.count;
                    bool changed = false;
                    for (int i = 0; i < calleeParams; ++i) {
                        if ((cs.paramIn[i] | regs[i]) !=
                            cs.paramIn[i]) {
                            cs.paramIn[i] |= regs[i];
                            changed = true;
                        }
                    }
                    if (changed)
                        enqueue(callee);
                    retMask |= cs.retOut;
                    localUnknown |= cs.memOut;

                    auto its = itsByFn.find(callee);
                    if (its != itsByFn.end())
                        retMask |= itsLabelAt(siteIdx, its->second);
                } else if (site.resolvesToFunction()) {
                    retMask |= argUnion;
                    if (isMemoryWriter(name)) {
                        const Mask srcMask =
                            regs[1] | regs[2] | regs[3];
                        const auto tracker = fa.backtracker();
                        bool resolved = false;
                        for (std::uint64_t addr :
                             tracker.resolveArg(blockIdx, stmtIdx,
                                                0)) {
                            const CellKey cell =
                                cellKey(myImage, addr);
                            localMem[cell] = srcMask;
                            if (srcMask != 0)
                                pendingCells[cell] |= srcMask;
                            resolved = true;
                        }
                        if (!resolved && srcMask != 0) {
                            localUnknown |= srcMask;
                            pendingUnknown |= srcMask;
                        }
                    }
                } else {
                    retMask |= argUnion;
                }
            }
        }

        regs[0] = retMask;
        regs[1] = regs[2] = regs[3] = 0;
    }
};

} // namespace sta_detail

/** Fixpoint visit cap per function, as taint::StaEngine::Config. */
constexpr std::size_t kStaOracleMaxRounds = 24;

/**
 * STA with the reference schedule: every function queued in FnId
 * order; whenever a visit changes a summary, a global cell or the
 * unknown bucket, every unqueued function is requeued; then one sweep
 * in FnId order records the alerts. budgetExhausted is set if the
 * round cap stopped the fixpoint (the result is then not the least
 * fixpoint and comparisons are meaningless).
 */
inline taint::TaintReport
referenceSta(const analysis::ProgramAnalysis &pa,
             const std::vector<taint::TaintSource> &sources)
{
    using sta_detail::FnId;
    sta_detail::Engine engine(pa, sources);
    const std::size_t n = pa.linked->fnCount();

    std::deque<FnId> worklist;
    std::vector<bool> queued(n, true);
    for (FnId id = 0; id < n; ++id)
        worklist.push_back(id);

    std::size_t processed = 0;
    const std::size_t cap =
        kStaOracleMaxRounds * std::max<std::size_t>(1, n);
    bool exhausted = false;
    while (!worklist.empty()) {
        if (processed++ > cap) {
            exhausted = true;
            break;
        }
        const FnId id = worklist.front();
        worklist.pop_front();
        queued[id] = false;
        if (engine.analyzeFunction(id, worklist, queued)) {
            for (FnId other = 0; other < n; ++other) {
                if (!queued[other]) {
                    queued[other] = true;
                    worklist.push_back(other);
                }
            }
        }
    }

    engine.recording = true;
    std::deque<FnId> dummy;
    std::vector<bool> dummyQueued(n, true);
    for (FnId id = 0; id < n; ++id)
        engine.analyzeFunction(id, dummy, dummyQueued);

    taint::TaintReport report;
    report.labels = engine.labelTable.labels;
    for (auto &[key, alert] : engine.alerts)
        report.alerts.push_back(std::move(alert));
    taint::sortAlerts(report.alerts);
    report.steps = engine.steps;
    report.budgetExhausted = exhausted;
    return report;
}

} // namespace fits::oracle

#endif // FITS_TESTS_STA_ORACLE_HH_
