#ifndef FITS_TAINT_STA_HH_
#define FITS_TAINT_STA_HH_

#include "analysis/program_analysis.hh"
#include "taint/common.hh"

namespace fits::taint {

/**
 * Every function of `pa`, callees first: the strongly connected
 * components of the call graph STA follows (direct calls that resolve
 * to a function of the caller's image) in reverse topological order.
 */
std::vector<analysis::FnId>
staBottomUpOrder(const analysis::ProgramAnalysis &pa);

/**
 * STA: the static taint analysis engine of §3.4. A whole-program,
 * summary-propagating dataflow over FIR: taint labels flow through
 * registers, temporaries, addressable memory cells and an "unknown"
 * memory bucket; functions expose parameter-in / return-out / memory-out
 * masks and the engine iterates the call graph to a fixpoint, recording
 * sink alerts at every visit.
 *
 * Two deliberate precision properties reproduce the paper's findings:
 *  - sanitization is data-only (storing constants over tainted memory
 *    clears it, per §3.4), so validation via *control flow* — bounds
 *    checks guarding a copy — is invisible, which is STA's main
 *    false-positive class;
 *  - the call graph view is name/entry-based like the IDA-Pro CG the
 *    paper built on, so indirect calls are not followed (Karonte's
 *    symbolic execution does follow them), which is STA's main
 *    false-negative class.
 *
 * Each visit to a function runs a fixed two layout-order passes over
 * its blocks, not a local fixpoint. The whole-program fixpoint starts
 * from a callees-first order (staBottomUpOrder) and revisits a function
 * only when one of its inputs grows: its paramIn (a caller passed new
 * taint), a callee's retOut or memOut, a global cell it loads from a
 * constant address, or the global unknown bucket if it loads at all.
 * Every input and output is an OR-monotone mask, so any such schedule
 * reaches the same least fixpoint, and each function's last visit sees
 * its final inputs; the alerts recorded along the way are therefore
 * those of the fixpoint state. Only a fixpoint cut short (deadline,
 * fault injection, round cap) adds a collection sweep over every
 * function in FnId order.
 */
class StaEngine
{
  public:
    struct Config
    {
        /** Fixpoint visit cap, in visits per function. Reaching it
         * stops the fixpoint, sets budgetExhausted and runs the
         * collection sweep. */
        std::size_t maxRounds = 24;

        /** Wall-clock budget in milliseconds; 0 = unlimited. On
         * expiry the fixpoint stops where it is and a collection sweep
         * over every function records the alerts of the partial state
         * (the sweep runs only when the fixpoint is cut short), so the
         * report carries partial alerts with deadlineExpired set. */
        double deadlineMs = 0.0;
    };

    StaEngine();
    explicit StaEngine(Config config);

    /** Run taint analysis with the given sources. */
    TaintReport run(const analysis::ProgramAnalysis &pa,
                    const std::vector<TaintSource> &sources) const;

    /**
     * The report run(pa, sources[0, prefix)) gives, derived from
     * `full` = run(pa, sources) without a second fixpoint, so one run
     * serves both the CTS and the CTS+ITS configuration.
     *
     * Bit-separability contract. Label bits are assigned in source
     * order, so the prefix's sources own bits 0..m-1 in both label
     * tables (m = their label count) as long as no later label shares
     * a bit with them (the table saturates at 64 bits). Every STA
     * operation acts on each bit alone: OR, assignment, or a kill
     * decided by static constants (a Store of a constant, a strong
     * update), never by a mask's value; and which cells and call
     * sites exist does not depend on the sources past the prefix. The
     * full fixpoint restricted to bits 0..m-1 is therefore a fair
     * iteration of the prefix's system and reaches its least fixpoint,
     * and an alert fires wherever its mask is nonzero. So the prefix
     * report is the full report's alerts with a prefix bit, in the same
     * order, each masked to those bits with its user-data flag
     * recomputed. This holds as long as a sink's call address lies in
     * one function of its image (alerts are keyed by image and
     * address).
     *
     * steps, analysisMs and the budget and deadline flags are the full
     * run's: the two reports share one run. When a later label shares
     * a bit with the prefix, this runs the prefix instead.
     */
    TaintReport prefixReport(const analysis::ProgramAnalysis &pa,
                             const std::vector<TaintSource> &sources,
                             std::size_t prefix,
                             const TaintReport &full) const;

    /** run() with an explicit initial worklist instead of
     * staBottomUpOrder(pa): `schedule` lists every FnId once. The
     * alerts do not depend on it; only the work done does. */
    TaintReport
    runScheduled(const analysis::ProgramAnalysis &pa,
                 const std::vector<TaintSource> &sources,
                 const std::vector<analysis::FnId> &schedule) const;

  private:
    Config config_;
};

} // namespace fits::taint

#endif // FITS_TAINT_STA_HH_
