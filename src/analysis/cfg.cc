#include "cfg.hh"

#include <algorithm>

#include "analysis/scratch.hh"

namespace fits::analysis {

BlockIndex::BlockIndex(const ir::Function &fn) : fn_(&fn)
{
    const auto &blocks = fn.blocks;
    const auto ascending = std::adjacent_find(
        blocks.begin(), blocks.end(),
        [](const ir::BasicBlock &a, const ir::BasicBlock &b) {
            return a.addr >= b.addr;
        });
    if (ascending == blocks.end())
        return;
    sorted_.reserve(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i)
        sorted_.emplace_back(blocks[i].addr, i);
    std::sort(sorted_.begin(), sorted_.end());
    // Keep the last (highest-index) block of each address.
    std::size_t out = 0;
    for (const auto &entry : sorted_) {
        if (out > 0 && sorted_[out - 1].first == entry.first)
            --out;
        sorted_[out++] = entry;
    }
    sorted_.resize(out);
}

std::size_t
BlockIndex::find(Addr addr) const
{
    if (sorted_.empty()) {
        const auto &blocks = fn_->blocks;
        const auto it = std::partition_point(
            blocks.begin(), blocks.end(),
            [addr](const ir::BasicBlock &b) { return b.addr < addr; });
        return it != blocks.end() && it->addr == addr
                   ? static_cast<std::size_t>(it - blocks.begin())
                   : npos;
    }
    const auto it = std::partition_point(
        sorted_.begin(), sorted_.end(),
        [addr](const auto &entry) { return entry.first < addr; });
    return it != sorted_.end() && it->first == addr ? it->second : npos;
}

namespace {

/** Per-thread build buffers, reused across functions. */
struct Scratch
{
    /** (from, to) in insertion order; sources ascend. */
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    std::vector<std::size_t> cursor;
    std::vector<char> seen;
    /** DFS frames: (block, next successor position). */
    std::vector<std::pair<std::size_t, std::size_t>> stack;
};

thread_local Scratch t_scratch;

} // namespace

Cfg
Cfg::build(const ir::Function &fn, const ResolvedTargets *resolvedTargets)
{
    return build(fn, BlockIndex(fn), resolvedTargets);
}

Cfg
Cfg::build(const ir::Function &fn, const BlockIndex &blocks,
           const ResolvedTargets *resolvedTargets)
{
    Scratch &s = t_scratch;
    const std::size_t n = fn.blocks.size();

    // Edges in insertion order, each (from, to) at most once.
    s.edges.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t first = s.edges.size();
        const auto addEdge = [&](std::size_t to) {
            if (to == BlockIndex::npos)
                return;
            for (std::size_t k = first; k < s.edges.size(); ++k) {
                if (s.edges[k].second == to)
                    return;
            }
            s.edges.emplace_back(i, to);
        };
        const ir::BasicBlock &block = fn.blocks[i];

        // Conditional side exits may appear anywhere in the block.
        for (const auto &stmt : block.stmts) {
            if (stmt.kind == ir::StmtKind::Branch)
                addEdge(blocks.find(stmt.target));
        }

        // Final control transfer.
        const ir::Stmt *term = block.terminator();
        if (term == nullptr) {
            // Implicit fallthrough (also the not-taken path of a
            // trailing Branch).
            if (i + 1 < n)
                addEdge(i + 1);
            continue;
        }
        if (term->kind != ir::StmtKind::Jump)
            continue; // Ret: no successors.
        if (!term->indirect) {
            addEdge(blocks.find(term->target));
        } else if (resolvedTargets != nullptr) {
            const Addr stmtAddr = block.stmtAddr(block.stmts.size() - 1);
            const auto rt = resolvedTargets->find(stmtAddr);
            if (rt != resolvedTargets->end()) {
                for (Addr target : rt->second)
                    addEdge(blocks.find(target));
            }
        }
    }

    Cfg cfg;
    cfg.numBlocks_ = n;
    cfg.numEdges_ = s.edges.size();
    // The reverse post-order takes at most n slots; trimmed below.
    cfg.data_.assign(2 * cfg.predBase() + n, 0);
    std::size_t *succOff = cfg.data_.data();
    std::size_t *succ = succOff + n + 1;
    std::size_t *predOff = cfg.data_.data() + cfg.predBase();
    std::size_t *pred = predOff + n + 1;
    std::size_t *rpo = cfg.data_.data() + 2 * cfg.predBase();

    for (const auto &[from, to] : s.edges) {
        ++succOff[from + 1];
        ++predOff[to + 1];
    }
    for (std::size_t b = 0; b < n; ++b) {
        succOff[b + 1] += succOff[b];
        predOff[b + 1] += predOff[b];
    }
    s.cursor.assign(predOff, predOff + n);
    for (std::size_t k = 0; k < s.edges.size(); ++k) {
        const auto [from, to] = s.edges[k];
        succ[k] = to;
        pred[s.cursor[to]++] = from;
    }

    // Iterative DFS from the entry; post-order, then reversed.
    std::size_t reached = 0;
    if (n > 0) {
        s.seen.assign(n, 0);
        s.stack.clear();
        s.seen[0] = 1;
        s.stack.emplace_back(0, succOff[0]);
        while (!s.stack.empty()) {
            auto &[b, next] = s.stack.back();
            if (next < succOff[b + 1]) {
                const std::size_t to = succ[next++];
                if (!s.seen[to]) {
                    s.seen[to] = 1;
                    s.stack.emplace_back(to, succOff[to]);
                }
            } else {
                rpo[reached++] = b;
                s.stack.pop_back();
            }
        }
        std::reverse(rpo, rpo + reached);
    }
    cfg.data_.resize(2 * cfg.predBase() + reached);
    trimScratch(s.edges, s.cursor, s.seen, s.stack);
    return cfg;
}

std::vector<bool>
Cfg::reachable() const
{
    std::vector<bool> seen(numBlocks(), false);
    for (std::size_t b : rpo())
        seen[b] = true;
    return seen;
}

} // namespace fits::analysis
