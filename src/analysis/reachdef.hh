#ifndef FITS_ANALYSIS_REACHDEF_HH_
#define FITS_ANALYSIS_REACHDEF_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/constmap.hh"
#include "support/deadline.hh"

namespace fits::analysis {

/**
 * Parameter dependence of every statement of one function (Algorithm 1,
 * lines 6-8 of the paper): which parameters reach each statement's
 * inputs through reaching definitions.
 *
 * A forward dataflow carries one parameter-mask byte per location: each
 * register, an explicit-writes-only view of each argument register,
 * each temporary, each constant address some Store targets, and one
 * "unknown" memory cell. The join is OR; the entry seeds argument
 * register i with bit i for i < numParams. The masks equal the OR of
 * the masks of the reaching definitions of each use, so no def-use
 * graph is built.
 *
 * Memory: a Store to a constant address overwrites its cell, a Store to
 * an unknown address ORs into the unknown cell; a Load from a constant
 * address reads its cell plus unknown, a Load from an unknown address
 * reads every cell. Calls define the return register and OR into the
 * unknown cell (the callee may write memory derived from its
 * arguments), and read the argument registers' explicit-writes view:
 * compilers materialize call arguments with explicit writes, so a stale
 * caller-provided value in an argument register is not an argument of
 * the call.
 */
class ReachingDefs
{
  public:
    struct Result
    {
        /** Parameter mask (bit i = param i) of the inputs of each
         * statement, block after block in layout order: statement s
         * of block b is at blockStart[b] + s. */
        std::vector<std::uint8_t> stmtDeps;

        /** Offset of each block's first statement in stmtDeps, plus
         * the total statement count (numBlocks + 1 entries). */
        std::vector<std::size_t> blockStart;

        /** The masks of block b's statements. */
        std::span<const std::uint8_t>
        depsOf(std::size_t b) const
        {
            return {stmtDeps.data() + blockStart[b],
                    stmtDeps.data() + blockStart[b + 1]};
        }

        /** The mask of statement s of block b. */
        std::uint8_t
        dep(std::size_t b, std::size_t s) const
        {
            return stmtDeps[blockStart[b] + s];
        }

        /** Union of stmtDeps over all Branch statements. */
        std::uint8_t branchDepMask = 0;

        /** The fixpoint was cut short by the deadline (or a fault
         * injection). Every vector is still fully sized; the masks
         * are then all zero, an under-approximation. */
        bool deadlineExpired = false;
    };

    static Result analyze(const Cfg &cfg, const ir::Function &fn,
                          const TmpConstMap &consts, int numParams,
                          support::Deadline deadline = {});
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_REACHDEF_HH_
