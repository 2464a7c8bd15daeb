#ifndef FITS_ANALYSIS_UCSE_HH_
#define FITS_ANALYSIS_UCSE_HH_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.hh"
#include "binary/image.hh"
#include "ir/function.hh"
#include "support/deadline.hh"

namespace fits::analysis {

using ir::Addr;

/**
 * Abstract value tracked by the under-constrained symbolic explorer:
 * a known constant, an unconstrained function argument (the "under-
 * constrained" part — analysis starts at the function entry with
 * arguments left symbolic), or unknown.
 */
struct AbsVal
{
    enum class Kind : std::uint8_t { Unknown, Const, Arg };

    Kind kind = Kind::Unknown;
    std::uint64_t value = 0;
    int arg = -1;

    static AbsVal
    unknown()
    {
        return {};
    }

    static AbsVal
    constant(std::uint64_t v)
    {
        AbsVal a;
        a.kind = Kind::Const;
        a.value = v;
        return a;
    }

    static AbsVal
    argument(int i)
    {
        AbsVal a;
        a.kind = Kind::Arg;
        a.arg = i;
        return a;
    }

    bool isConst() const { return kind == Kind::Const; }
    bool isArg() const { return kind == Kind::Arg; }
    bool isUnknown() const { return kind == Kind::Unknown; }
};

/** Tuning knobs for the explorer. */
struct UcseConfig
{
    /** Overall statement budget per function. */
    std::size_t maxSteps = 50000;
    /** Re-entry bound per block, which also bounds loop unrolling. */
    std::size_t maxVisitsPerBlock = 4;
    /** Wall-clock budget; default never expires. Checked coarsely in
     * the exploration loop, so expiry yields partial results rather
     * than an error. */
    support::Deadline deadline;
};

/** Results of exploring one function. */
struct UcseResult
{
    /** Indirect Call statement address -> resolved callee addresses. */
    std::unordered_map<Addr, std::vector<Addr>> resolvedCalls;
    /** Indirect Jump statement address -> resolved block addresses. */
    std::unordered_map<Addr, std::vector<Addr>> resolvedJumps;
    /** Blocks reached by at least one explored path. */
    std::vector<bool> reachedBlocks;
    std::size_t steps = 0;
    bool budgetExhausted = false;
    /** The wall-clock deadline (or a fault injection) cut exploration
     * short; resolved targets and reached blocks are partial. */
    bool deadlineExpired = false;
};

/**
 * Under-constrained symbolic explorer over FIR, in the spirit of UC-KLEE
 * as used by FITS: analysis starts directly at the entry of the function
 * under analysis with its arguments unconstrained, propagates constants
 * through temporaries and registers, folds binary operations, reads
 * initialized image memory for loads from constant addresses (which is
 * how jump tables and function-pointer tables resolve), and forks on
 * branches whose condition is not constant. Exploration is bounded by a
 * statement budget and a per-block visit bound, trading completeness for
 * the tractable memory behaviour the paper requires.
 *
 * In-flight paths form a LIFO stack of flat rows (registers, then
 * temporaries) in one per-thread buffer: the running path is the top
 * row, a fork appends a copy of it, and the path's own continuation
 * (fall-through or jump) retargets the row in place when nothing was
 * forked above it.
 */
class UcseExplorer
{
  public:
    explicit UcseExplorer(const bin::BinaryImage &image,
                          UcseConfig config = {});

    /** Explore fn from its entry. */
    UcseResult explore(const ir::Function &fn) const;

    /** Explore fn from its entry, resolving block addresses through an
     * index of fn's blocks already at hand. */
    UcseResult explore(const ir::Function &fn,
                       const BlockIndex &blocks) const;

  private:
    const bin::BinaryImage &image_;
    UcseConfig config_;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_UCSE_HH_
