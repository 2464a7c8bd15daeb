#include "sta.hh"

#include <deque>
#include <map>
#include <unordered_map>

#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "support/deadline.hh"
#include "taint/labels.hh"
#include "taint/site_table.hh"

namespace fits::taint {

namespace {

using analysis::FnId;
using analysis::ProgramAnalysis;
using ir::Addr;
using ir::Operand;
using ir::Stmt;
using ir::StmtKind;

using Mask = std::uint64_t;

/** Memory cells are keyed per image so overlapping address spaces of
 * the main binary and its libraries do not alias. */
using CellKey = std::uint64_t;

CellKey
cellKey(std::size_t imageIdx, Addr addr)
{
    return (static_cast<CellKey>(imageIdx) << 48) | addr;
}

/** Whether STA follows a call site into its callee's summaries:
 * direct calls that resolve to a function of the caller's own image
 * (the callee's paramIn, retOut and memOut). */
bool
followsSite(const analysis::CallSite &site)
{
    return !site.indirect && site.resolvesToFunction() &&
           site.target.library.empty();
}

/** Layout-order passes over a function per visit. */
constexpr int kPassesPerFunction = 2;

/** Per-function interprocedural summary state. */
struct FnState
{
    Mask paramIn[ir::kNumArgRegs] = {0, 0, 0, 0};
    Mask retOut = 0;
    Mask memOut = 0;
};

/** What one visit changed in the state other functions read. */
struct VisitChanges
{
    /** The visited function's retOut or memOut grew. */
    bool summary = false;
    /** globalUnknown grew. */
    bool unknown = false;
    /** Global cells that grew. */
    std::vector<CellKey> cells;
};

struct Engine
{
    const ProgramAnalysis &pa;
    const std::vector<TaintSource> &sources;
    LabelTable labelTable;

    std::vector<FnState> fnStates;
    std::unordered_map<CellKey, Mask> globalCells;
    Mask globalUnknown = 0;

    /** Image index per function (for cell keys) and call-site roles. */
    SiteTable siteTable;

    /** ITS call-site label cache: site index -> seed bit. */
    std::unordered_map<std::size_t, Mask> itsSiteLabel;

    /** The fixpoint worklist; queued[id] is true while id is on it. */
    std::deque<FnId> worklist;
    std::vector<bool> queued;

    std::size_t steps = 0;
    std::map<std::pair<std::size_t, Addr>, Alert> alerts;

    explicit Engine(const ProgramAnalysis &pa_,
                    const std::vector<TaintSource> &sources_)
        : pa(pa_), sources(sources_),
          labelTable(buildLabelTable(sources)), siteTable(pa, sources)
    {
        fnStates.resize(pa.linked->fnCount());
        queued.resize(pa.linked->fnCount(), false);
    }

    void
    enqueue(FnId id)
    {
        if (!queued[id]) {
            queued[id] = true;
            worklist.push_back(id);
        }
    }

    std::size_t
    imageOf(FnId id) const
    {
        return siteTable.imageOf(id);
    }

    /** Seed label for an ITS call site: user or system data depending
     * on the key string the caller passes (resolved with the Table-2
     * backtracker, as the paper's string matching does). */
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

    /**
     * One visit to a function: kPassesPerFunction layout-order passes.
     * Callees whose paramIn grows are enqueued here; what else grew
     * (the function's retOut/memOut, global cells, the unknown bucket)
     * is reported in `changed` for the driver to requeue the readers.
     */
    void
    analyzeFunction(FnId id, VisitChanges &changed)
    {
        const auto &fa = pa.fn(id);
        const ir::Function &fn = *fa.fn;
        FnState &state = fnStates[id];
        const std::size_t myImage = imageOf(id);
        // Call sites of this function, grouped by caller and ordered
        // by (block, stmt): each pass walks them with a cursor.
        const auto mySites = pa.callGraph.sitesOfCaller(id);
        const auto sitePos = [&](std::size_t i) {
            const auto &site = pa.callGraph.sites()[mySites[i]];
            return std::make_pair(site.blockIdx, site.stmtIdx);
        };

        std::vector<Mask> tmps(fn.numTmps, 0);
        Mask regs[ir::kNumRegs] = {};
        std::unordered_map<CellKey, Mask> localMem;
        Mask localUnknown = 0;

        // Pending monotone global updates, committed afterwards.
        std::unordered_map<CellKey, Mask> pendingCells;
        Mask pendingUnknown = 0;

        auto maskOf = [&](const Operand &op) -> Mask {
            if (op.isImm())
                return 0;
            return op.tmp < tmps.size() ? tmps[op.tmp] : 0;
        };

        for (int pass = 0; pass < kPassesPerFunction; ++pass) {
            for (int i = 0; i < ir::kNumArgRegs; ++i)
                regs[i] |= state.paramIn[i];
            std::size_t cursor = 0;

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
                            // Data sanitization per §3.4: writing a
                            // constant over memory clears its taint
                            // (locally; the global view stays
                            // monotone).
                            localMem[key] = constValue ? 0 : value;
                            if (value != 0)
                                pendingCells[key] |= value;
                        } else {
                            localUnknown |= value;
                            pendingUnknown |= value;
                        }
                        break;
                      }
                      case StmtKind::Call: {
                        const auto here = std::make_pair(b, s);
                        while (cursor < mySites.size() &&
                               sitePos(cursor) < here)
                            ++cursor;
                        std::size_t last = cursor;
                        while (last < mySites.size() &&
                               sitePos(last) == here)
                            ++last;
                        handleCall(id, b, s, block.stmtAddr(s), fa,
                                   analysis::CallGraph::SiteRun(
                                       mySites.begin() + cursor,
                                       mySites.begin() + last),
                                   regs,
                                   localMem, localUnknown, pendingCells,
                                   pendingUnknown);
                        cursor = last;
                        break;
                      }
                      case StmtKind::Ret:
                        if (regs[ir::kRetReg] != 0 &&
                            (state.retOut | regs[ir::kRetReg]) !=
                                state.retOut) {
                            state.retOut |= regs[ir::kRetReg];
                            changed.summary = true;
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
            changed.summary = true;
        }

        for (const auto &[key, mask] : pendingCells) {
            Mask &cell = globalCells[key];
            if ((cell | mask) != cell) {
                cell |= mask;
                changed.cells.push_back(key);
            }
        }
        if ((globalUnknown | pendingUnknown) != globalUnknown) {
            globalUnknown |= pendingUnknown;
            changed.unknown = true;
        }
    }

    /** One Call statement; callSites are the indices of its call
     * sites. Indirect sites are skipped: the name-based call
     * graph has no such edge. */
    void
    handleCall(FnId caller, std::size_t blockIdx, std::size_t stmtIdx,
               Addr stmtAddr, const analysis::FunctionAnalysis &fa,
               analysis::CallGraph::SiteRun callSites, Mask regs[],
               std::unordered_map<CellKey, Mask> &localMem,
               Mask &localUnknown,
               std::unordered_map<CellKey, Mask> &pendingCells,
               Mask &pendingUnknown)
    {
        const std::size_t myImage = imageOf(caller);

        Mask retMask = 0;
        const Mask argUnion =
            regs[0] | regs[1] | regs[2] | regs[3];

        for (const std::size_t siteIdx : callSites) {
            const auto &site = pa.callGraph.sites()[siteIdx];
            if (site.indirect)
                continue;
            const SiteRole &role = siteTable.role(siteIdx);

            // Sink check first: the call consumes its arguments.
            if (role.sink != nullptr) {
                Mask hit = 0;
                for (int arg : role.sink->taintedArgs) {
                    if (arg >= 0 && arg < ir::kNumArgRegs)
                        hit |= regs[arg];
                }
                recordAlert(caller, stmtAddr, *role.sink, hit);
            }

            // CTS seeding.
            if (role.cts != kNoSource) {
                const TaintSource &src = sources[role.cts];
                const Mask label = labelTable.bySource[role.cts].userBit;
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
                                 off < kPointerSeedRange; ++off) {
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
                // Custom (same-image) callee: propagate parameter
                // taint and pick up its summary.
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

                // ITS seeding: the verified taint origin is the
                // return register of the ITS.
                if (role.its != kNoSource)
                    retMask |= itsLabelAt(siteIdx, role.its);
            } else if (site.resolvesToFunction()) {
                // Library function with an implementation: treat
                // as a model (anchor semantics): taint flows from
                // arguments to the return value, and for memory
                // writers into the destination buffer.
                retMask |= argUnion;
                if (role.memoryWriter) {
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
                // External import without implementation.
                retMask |= argUnion;
            }
        }

        // The callee clobbers caller-saved registers.
        regs[0] = retMask;
        regs[1] = regs[2] = regs[3] = 0;
    }
};

/** Who reads the state a visit can change. */
struct Readers
{
    /** Per function: its distinct callers (they read its retOut and
     * memOut). */
    std::vector<std::vector<FnId>> callers;
    /** Global cell -> functions with a constant-address Load of it.
     * Such loads have no call-graph edge. */
    std::unordered_map<CellKey, std::vector<FnId>> cellReaders;
    /** Functions with any Load: they all read globalUnknown. */
    std::vector<FnId> loaders;
};

Readers
buildReaders(const Engine &engine)
{
    const ProgramAnalysis &pa = engine.pa;
    Readers readers;
    readers.callers.resize(pa.linked->fnCount());
    // Sites are grouped by caller, so duplicates are adjacent.
    for (const auto &site : pa.callGraph.sites()) {
        if (!followsSite(site))
            continue;
        auto &callers = readers.callers[site.target.fn];
        if (callers.empty() || callers.back() != site.caller)
            callers.push_back(site.caller);
    }
    for (FnId id = 0; id < pa.linked->fnCount(); ++id) {
        const auto &fa = pa.fn(id);
        const std::size_t image = engine.imageOf(id);
        bool loads = false;
        for (const auto &block : fa.fn->blocks) {
            for (const Stmt &stmt : block.stmts) {
                if (stmt.kind != StmtKind::Load)
                    continue;
                loads = true;
                if (auto addr = fa.consts.valueOf(stmt.a)) {
                    auto &cell =
                        readers.cellReaders[cellKey(image, *addr)];
                    if (cell.empty() || cell.back() != id)
                        cell.push_back(id);
                }
            }
        }
        if (loads)
            readers.loaders.push_back(id);
    }
    return readers;
}

TaintReport
runSta(const StaEngine::Config &config, const ProgramAnalysis &pa,
       const std::vector<TaintSource> &sources,
       const std::vector<FnId> *schedule)
{
    obs::ScopedTimer runSpan("taint/sta");

    Engine engine(pa, sources);
    const std::size_t n = pa.linked->fnCount();
    for (FnId id : schedule != nullptr ? *schedule : staBottomUpOrder(pa))
        engine.enqueue(id);
    const Readers readers = buildReaders(engine);

    const support::Deadline deadline =
        config.deadlineMs > 0.0
            ? support::Deadline::afterMs(config.deadlineMs)
            : support::Deadline::never();
    bool expired = chaos::shouldInject("taint.sta");
    if (expired)
        engine.worklist.clear();

    std::size_t processed = 0;
    const std::size_t cap =
        config.maxRounds * std::max<std::size_t>(1, n);
    bool exhausted = false;
    VisitChanges changed;
    while (!engine.worklist.empty()) {
        if (processed++ > cap) {
            exhausted = true;
            break;
        }
        if (deadline.expiredCoarse(processed)) {
            expired = true;
            break;
        }
        const FnId id = engine.worklist.front();
        engine.worklist.pop_front();
        engine.queued[id] = false;
        changed.summary = changed.unknown = false;
        changed.cells.clear();
        engine.analyzeFunction(id, changed);
        // Requeue exactly the functions that read what grew.
        if (changed.summary) {
            for (FnId caller : readers.callers[id])
                engine.enqueue(caller);
        }
        for (CellKey key : changed.cells) {
            auto it = readers.cellReaders.find(key);
            if (it == readers.cellReaders.end())
                continue;
            for (FnId reader : it->second)
                engine.enqueue(reader);
        }
        if (changed.unknown) {
            for (FnId loader : readers.loaders)
                engine.enqueue(loader);
        }
    }

    const std::size_t fixpointSteps = engine.steps;

    // Every visit records its alerts, and at the fixpoint each
    // function's last visit saw its final inputs. Only a fixpoint cut
    // short needs the collection sweep over the partial state.
    if (expired || exhausted) {
        for (FnId id = 0; id < n; ++id)
            engine.analyzeFunction(id, changed);
    }

    TaintReport report;
    report.labels = engine.labelTable.labels;
    for (auto &[key, alert] : engine.alerts)
        report.alerts.push_back(std::move(alert));
    sortAlerts(report.alerts);
    report.steps = engine.steps;
    report.budgetExhausted = exhausted;
    report.deadlineExpired = expired;
    report.analysisMs = runSpan.stopMs();

    if (obs::enabled()) {
        obs::addCounter("taint.sta.runs");
        obs::addCounter("taint.sta.fixpoint_steps", fixpointSteps);
        obs::addCounter("taint.sta.sweep_steps",
                        engine.steps - fixpointSteps);
        obs::addCounter("taint.sta.functions_processed", processed);
        obs::addCounter("taint.sta.alerts", report.alerts.size());
        if (exhausted)
            obs::addCounter("taint.sta.budget_exhausted");
        if (expired)
            obs::addCounter("taint.sta.deadline_expired");
    }
    return report;
}

} // namespace

std::vector<FnId>
staBottomUpOrder(const ProgramAnalysis &pa)
{
    // Tarjan's algorithm with an explicit DFS stack. It completes each
    // SCC after every SCC it calls into, so emitting members as their
    // SCC completes yields callees first.
    const std::size_t n = pa.linked->fnCount();
    const auto &sites = pa.callGraph.sites();
    constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
    std::vector<std::size_t> index(n, kUnvisited), low(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<FnId> sccStack, order;
    order.reserve(n);

    struct Frame
    {
        FnId fn;
        analysis::CallGraph::SiteRun out; ///< sitesOfCaller(fn)
        std::size_t next;
    };
    std::vector<Frame> frames;
    std::size_t counter = 0;
    const auto discover = [&](FnId v) {
        index[v] = low[v] = counter++;
        sccStack.push_back(v);
        onStack[v] = true;
        frames.push_back({v, pa.callGraph.sitesOfCaller(v), 0});
    };

    for (FnId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited)
            continue;
        discover(root);
        while (!frames.empty()) {
            Frame &top = frames.back();
            const FnId v = top.fn;
            if (top.next < top.out.size()) {
                const auto &site = sites[top.out[top.next++]];
                if (!followsSite(site))
                    continue;
                const FnId w = site.target.fn;
                if (index[w] == kUnvisited)
                    discover(w);
                else if (onStack[w])
                    low[v] = std::min(low[v], index[w]);
                continue;
            }
            frames.pop_back();
            if (!frames.empty()) {
                const FnId parent = frames.back().fn;
                low[parent] = std::min(low[parent], low[v]);
            }
            if (low[v] == index[v]) {
                FnId w;
                do {
                    w = sccStack.back();
                    sccStack.pop_back();
                    onStack[w] = false;
                    order.push_back(w);
                } while (w != v);
            }
        }
    }
    return order;
}

StaEngine::StaEngine()
    : config_()
{
}

StaEngine::StaEngine(Config config)
    : config_(config)
{
}

TaintReport
StaEngine::run(const ProgramAnalysis &pa,
               const std::vector<TaintSource> &sources) const
{
    return runSta(config_, pa, sources, nullptr);
}

TaintReport
StaEngine::prefixReport(const ProgramAnalysis &pa,
                        const std::vector<TaintSource> &sources,
                        std::size_t prefix, const TaintReport &full) const
{
    // Label i owns bit min(i, 63) (buildLabelTable).
    constexpr std::size_t kBits = 64;
    std::size_t m = 0;
    while (m < full.labels.size() && full.labels[m].sourceIndex < prefix)
        ++m;
    if (m >= kBits && full.labels.size() > m) {
        const std::vector<TaintSource> head(
            sources.begin(),
            sources.begin() + static_cast<std::ptrdiff_t>(prefix));
        return run(pa, head);
    }

    const auto bitOf = [](std::size_t label) {
        return Mask{1} << std::min(label, kBits - 1);
    };
    Mask prefixBits = 0, userBits = 0;
    for (std::size_t i = 0; i < m; ++i) {
        prefixBits |= bitOf(i);
        if (!full.labels[i].systemData)
            userBits |= bitOf(i);
    }

    TaintReport report;
    report.labels.assign(full.labels.begin(),
                         full.labels.begin() + static_cast<std::ptrdiff_t>(m));
    for (const Alert &alert : full.alerts) {
        if ((alert.labelMask & prefixBits) == 0)
            continue;
        Alert &kept = report.alerts.emplace_back(alert);
        kept.labelMask &= prefixBits;
        kept.hasUserDataLabel = (kept.labelMask & userBits) != 0;
    }
    // Still in sortAlerts order: an alert's image and sink address,
    // the first keys compared, are unique within a report.
    report.steps = full.steps;
    report.budgetExhausted = full.budgetExhausted;
    report.deadlineExpired = full.deadlineExpired;
    report.analysisMs = full.analysisMs;
    if (obs::enabled())
        obs::addCounter("taint.sta.alerts", report.alerts.size());
    return report;
}

TaintReport
StaEngine::runScheduled(const ProgramAnalysis &pa,
                        const std::vector<TaintSource> &sources,
                        const std::vector<FnId> &schedule) const
{
    return runSta(config_, pa, sources, &schedule);
}

} // namespace fits::taint
