#ifndef FITS_ANALYSIS_CFG_HH_
#define FITS_ANALYSIS_CFG_HH_

#include <span>
#include <unordered_map>
#include <vector>

#include "ir/function.hh"

namespace fits::analysis {

using ir::Addr;

/**
 * Address -> block lookup of one function, built once and shared by the
 * UCSE explorer and Cfg::build. Lifted and built functions lay their
 * blocks out in ascending address order; then the block list itself is
 * the sorted table and nothing is allocated. Any other layout gets a
 * sorted copy. Where two blocks share an address, the later one in
 * layout order wins.
 */
class BlockIndex
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    explicit BlockIndex(const ir::Function &fn);

    /** Index of the block at `addr`, or npos. */
    std::size_t find(Addr addr) const;

  private:
    const ir::Function *fn_;
    /** (address, block) sorted by address, one entry per address;
     * empty when fn's layout is strictly ascending. */
    std::vector<std::pair<Addr, std::size_t>> sorted_;
};

/**
 * Control-flow graph of one function. Nodes are indices into
 * Function::blocks; block 0 is the entry.
 *
 * Edges:
 *  - Branch (a conditional side exit that may appear anywhere in the
 *    block): an edge to the taken target; the not-taken path stays
 *    inside the block, so it contributes no edge of its own;
 *  - Jump (direct): the target block;
 *  - Jump (indirect): targets supplied by the UCSE explorer, if any;
 *  - block ends without Jump/Ret: fall-through to the next layout
 *    block (this covers a trailing Branch's not-taken path);
 *  - Ret: no successors.
 *
 * Calls are not block terminators in FIR (as in VEX, control returns to
 * the following statement), so they contribute no CFG edges.
 *
 * Layout: one array holds the successor and predecessor lists in CSR
 * form (each block's successors in the order its statements produce
 * them, each block's predecessors in ascending order) and the reverse
 * post-order of the blocks reachable from the entry, computed once by
 * an iterative DFS that visits successors in list order. Dominators,
 * parameter inference and the dependence dataflow all read that order.
 */
class Cfg
{
  public:
    using ResolvedTargets = std::unordered_map<Addr, std::vector<Addr>>;

    /**
     * Build the CFG. resolvedTargets optionally maps the address of an
     * indirect Jump statement to the block addresses the UCSE explorer
     * proved reachable from it.
     */
    static Cfg build(const ir::Function &fn,
                     const ResolvedTargets *resolvedTargets = nullptr);

    /** Build against an index of fn's blocks already at hand. */
    static Cfg build(const ir::Function &fn, const BlockIndex &blocks,
                     const ResolvedTargets *resolvedTargets);

    std::size_t numBlocks() const { return numBlocks_; }
    std::size_t entry() const { return 0; }

    std::span<const std::size_t>
    succs(std::size_t block) const
    {
        return range(block, 0);
    }

    std::span<const std::size_t>
    preds(std::size_t block) const
    {
        return range(block, predBase());
    }

    /** The blocks reachable from the entry, in reverse post-order. */
    std::span<const std::size_t>
    rpo() const
    {
        if (data_.empty())
            return {};
        const std::size_t base = 2 * predBase();
        return {data_.data() + base, data_.size() - base};
    }

    /** Blocks reachable from the entry, as a flag per block. */
    std::vector<bool> reachable() const;

    /** Number of edges in the graph. */
    std::size_t numEdges() const { return numEdges_; }

  private:
    /** Start of the predecessor half: offsets (n + 1) then edges. */
    std::size_t predBase() const { return numBlocks_ + 1 + numEdges_; }

    std::span<const std::size_t>
    range(std::size_t block, std::size_t base) const
    {
        const std::size_t *offsets = data_.data() + base;
        const std::size_t *edges = offsets + numBlocks_ + 1;
        return {edges + offsets[block], edges + offsets[block + 1]};
    }

    std::size_t numBlocks_ = 0;
    std::size_t numEdges_ = 0;
    /** [succ offsets | succ edges | pred offsets | pred edges | rpo] */
    std::vector<std::size_t> data_;
};

} // namespace fits::analysis

#endif // FITS_ANALYSIS_CFG_HH_
