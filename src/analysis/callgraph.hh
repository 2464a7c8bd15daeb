#ifndef FITS_ANALYSIS_CALLGRAPH_HH_
#define FITS_ANALYSIS_CALLGRAPH_HH_

#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "analysis/function_analysis.hh"
#include "analysis/linked.hh"

namespace fits::analysis {

/**
 * One call instruction, with its resolution. stmtAddr is the address of
 * the Call statement inside the caller's image.
 */
struct CallSite
{
    FnId caller = 0;
    std::size_t blockIdx = 0;
    std::size_t stmtIdx = 0;
    Addr stmtAddr = 0;
    bool indirect = false;

    LinkedProgram::CallTarget target;

    bool
    resolvesToFunction() const
    {
        return target.kind == LinkedProgram::CallTarget::Kind::Function;
    }

    bool
    isLibraryCall() const
    {
        // Calls through the PLT (named) or to external imports are
        // library calls from the caller's perspective.
        return target.kind ==
                   LinkedProgram::CallTarget::Kind::ExternalImport ||
               (resolvesToFunction() && !target.library.empty());
    }
};

/**
 * Whole-program call graph over a LinkedProgram. Direct calls are
 * resolved through the import table; indirect calls use the UCSE
 * explorer's resolved targets (function-pointer tables).
 *
 * Sites are stored caller by caller, each caller's in (block, stmt)
 * order, so a caller's sites are one contiguous run of indices; per-FnId
 * offset tables index those runs and each callee's sites (ascending).
 */
class CallGraph
{
  public:
    /** Consecutive indices into sites(). */
    using SiteRun = std::ranges::iota_view<std::size_t, std::size_t>;

    /**
     * Build the call graph. fns optionally supplies, in FnId order, the
     * analyses whose UCSE resolvedCalls disambiguate indirect calls;
     * without one an indirect call keeps a single Unknown-target site.
     */
    static CallGraph build(const LinkedProgram &linked,
                           std::span<const FunctionAnalysis> fns = {});

    const std::vector<CallSite> &sites() const { return sites_; }

    /** Indices into sites() of calls made by `caller`, ascending. */
    SiteRun sitesOfCaller(FnId caller) const;

    /** Indices into sites() of calls targeting function `callee`,
     * ascending. */
    std::span<const std::size_t> sitesOfCallee(FnId callee) const;

    /** Number of call sites targeting `callee` ("number of callers" in
     * the BFV; the paper counts call sites, which is what separates an
     * ITS from an error printer called from everywhere). */
    std::size_t callerSiteCount(FnId callee) const;

    /** Number of distinct calling functions. */
    std::size_t distinctCallerCount(FnId callee) const;

    /** Call sites in `caller` that target a named library symbol. */
    std::size_t libraryCallCount(FnId caller) const;

  private:
    std::vector<CallSite> sites_;
    /** Caller c's sites are [callerOff_[c], callerOff_[c + 1]). */
    std::vector<std::size_t> callerOff_;
    /** Callee c's sites are calleeSites_[calleeOff_[c] ..
     * calleeOff_[c + 1]). */
    std::vector<std::size_t> calleeOff_;
    std::vector<std::size_t> calleeSites_;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_CALLGRAPH_HH_
