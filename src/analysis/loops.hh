#ifndef FITS_ANALYSIS_LOOPS_HH_
#define FITS_ANALYSIS_LOOPS_HH_

#include <cstddef>
#include <utility>
#include <vector>

#include "analysis/cfg.hh"

namespace fits::analysis {

/**
 * Dominator and natural-loop information for one CFG, computed with the
 * Cooper/Harvey/Kennedy iterative dominator algorithm over the CFG's
 * reverse post-order, followed by back-edge detection (an edge a->b
 * with b dominating a) and natural-loop body collection. Back-edge
 * detection is linear: only retreating edges are candidates, and
 * dominance is two comparisons of dominator-tree pre/post numbers.
 */
struct LoopInfo
{
    /** Immediate dominator per block; idom[entry] == entry and
     * unreachable blocks get npos. */
    std::vector<std::size_t> idom;

    /** Back edges as (latch, header) pairs. */
    std::vector<std::pair<std::size_t, std::size_t>> backEdges;

    /** Whether the block belongs to any natural loop body. */
    std::vector<bool> inLoop;

    /**
     * Whether the block's terminating conditional branch controls a
     * loop: true for loop headers and latches that end in a Branch.
     * This is what BFV feature 7 ("parameters control loops") keys on.
     */
    std::vector<bool> controlsLoop;

    bool hasLoop() const { return !backEdges.empty(); }

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** True if a dominates b (walks the idom chain). */
    bool dominates(std::size_t a, std::size_t b) const;
};

/** Compute dominators and natural loops for the CFG of fn. */
LoopInfo analyzeLoops(const Cfg &cfg, const ir::Function &fn);

} // namespace fits::analysis

#endif // FITS_ANALYSIS_LOOPS_HH_
