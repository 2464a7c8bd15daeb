#include "callgraph.hh"

namespace fits::analysis {

CallGraph
CallGraph::build(const LinkedProgram &linked,
                 std::span<const FunctionAnalysis> fns)
{
    CallGraph cg;
    const std::size_t numFns = linked.fnCount();

    for (FnId caller = 0; caller < numFns; ++caller) {
        const FnRef &ref = linked.fn(caller);
        const UcseResult *ucse =
            caller < fns.size() ? &fns[caller].ucse : nullptr;

        for (std::size_t bi = 0; bi < ref.fn->blocks.size(); ++bi) {
            const ir::BasicBlock &block = ref.fn->blocks[bi];
            for (std::size_t si = 0; si < block.stmts.size(); ++si) {
                const ir::Stmt &stmt = block.stmts[si];
                if (stmt.kind != ir::StmtKind::Call)
                    continue;

                CallSite site;
                site.caller = caller;
                site.blockIdx = bi;
                site.stmtIdx = si;
                site.stmtAddr = block.stmtAddr(si);
                site.indirect = stmt.indirect;
                const auto emit = [&](Addr targetAddr) {
                    site.target = linked.resolve(ref.image, targetAddr);
                    cg.sites_.push_back(site);
                };

                if (!stmt.indirect) {
                    emit(stmt.target);
                    continue;
                }
                const std::vector<Addr> *targets = nullptr;
                if (ucse != nullptr) {
                    const auto it = ucse->resolvedCalls.find(site.stmtAddr);
                    if (it != ucse->resolvedCalls.end())
                        targets = &it->second;
                }
                if (targets != nullptr) {
                    for (Addr t : *targets)
                        emit(t);
                } else {
                    // Unresolved indirect call: keep the site with an
                    // Unknown target so engines can account for
                    // interrupted data flow.
                    cg.sites_.push_back(site);
                }
            }
        }
    }

    // Offset tables; each callee's sites are counting-sorted (stable,
    // so ascending).
    cg.callerOff_.assign(numFns + 1, 0);
    cg.calleeOff_.assign(numFns + 1, 0);
    for (const CallSite &site : cg.sites_) {
        ++cg.callerOff_[site.caller + 1];
        if (site.resolvesToFunction())
            ++cg.calleeOff_[site.target.fn + 1];
    }
    for (std::size_t f = 0; f < numFns; ++f) {
        cg.callerOff_[f + 1] += cg.callerOff_[f];
        cg.calleeOff_[f + 1] += cg.calleeOff_[f];
    }
    cg.calleeSites_.resize(cg.calleeOff_[numFns]);
    std::vector<std::size_t> cursor(cg.calleeOff_.begin(),
                                    cg.calleeOff_.end() - 1);
    for (std::size_t idx = 0; idx < cg.sites_.size(); ++idx) {
        const CallSite &site = cg.sites_[idx];
        if (site.resolvesToFunction())
            cg.calleeSites_[cursor[site.target.fn]++] = idx;
    }
    return cg;
}

CallGraph::SiteRun
CallGraph::sitesOfCaller(FnId caller) const
{
    if (std::size_t{caller} + 1 >= callerOff_.size())
        return {};
    return SiteRun(callerOff_[caller], callerOff_[caller + 1]);
}

std::span<const std::size_t>
CallGraph::sitesOfCallee(FnId callee) const
{
    if (std::size_t{callee} + 1 >= calleeOff_.size())
        return {};
    return std::span(calleeSites_)
        .subspan(calleeOff_[callee],
                 calleeOff_[callee + 1] - calleeOff_[callee]);
}

std::size_t
CallGraph::callerSiteCount(FnId callee) const
{
    return sitesOfCallee(callee).size();
}

std::size_t
CallGraph::distinctCallerCount(FnId callee) const
{
    // A callee's sites ascend, and sites are stored caller by caller,
    // so equal callers are adjacent.
    std::size_t n = 0;
    FnId last = 0;
    for (std::size_t idx : sitesOfCallee(callee)) {
        if (n == 0 || sites_[idx].caller != last)
            ++n;
        last = sites_[idx].caller;
    }
    return n;
}

std::size_t
CallGraph::libraryCallCount(FnId caller) const
{
    std::size_t n = 0;
    for (std::size_t idx : sitesOfCaller(caller)) {
        if (sites_[idx].isLibraryCall())
            ++n;
    }
    return n;
}

} // namespace fits::analysis
