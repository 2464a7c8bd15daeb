#include "loops.hh"

namespace fits::analysis {

bool
LoopInfo::dominates(std::size_t a, std::size_t b) const
{
    if (b >= idom.size() || idom[b] == npos)
        return false;
    std::size_t cur = b;
    while (true) {
        if (cur == a)
            return true;
        if (idom[cur] == cur) // reached the entry
            return false;
        cur = idom[cur];
        if (cur == npos)
            return false;
    }
}

LoopInfo
analyzeLoops(const Cfg &cfg, const ir::Function &fn)
{
    const std::size_t n = cfg.numBlocks();
    LoopInfo info;
    info.idom.assign(n, LoopInfo::npos);
    info.inLoop.assign(n, false);
    info.controlsLoop.assign(n, false);
    if (n == 0)
        return info;

    const auto order = cfg.rpo();
    std::vector<std::size_t> rpoIndex(n, LoopInfo::npos);
    for (std::size_t i = 0; i < order.size(); ++i)
        rpoIndex[order[i]] = i;

    // Cooper/Harvey/Kennedy "engineering a simple, fast dominator
    // algorithm" fixpoint.
    auto intersect = [&](std::size_t a, std::size_t b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = info.idom[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = info.idom[b];
        }
        return a;
    };

    info.idom[cfg.entry()] = cfg.entry();
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b : order) {
            if (b == cfg.entry())
                continue;
            std::size_t newIdom = LoopInfo::npos;
            for (std::size_t p : cfg.preds(b)) {
                if (rpoIndex[p] == LoopInfo::npos ||
                    info.idom[p] == LoopInfo::npos) {
                    continue;
                }
                newIdom = newIdom == LoopInfo::npos
                              ? p
                              : intersect(p, newIdom);
            }
            if (newIdom != LoopInfo::npos && info.idom[b] != newIdom) {
                info.idom[b] = newIdom;
                changed = true;
            }
        }
    }

    // Back edges: a -> h where h dominates a. A dominator precedes
    // what it dominates in every DFS order, so only retreating edges
    // (h no later than a in RPO) can qualify.
    std::vector<std::pair<std::size_t, std::size_t>> retreating;
    for (std::size_t a = 0; a < n; ++a) {
        if (rpoIndex[a] == LoopInfo::npos)
            continue;
        for (std::size_t h : cfg.succs(a)) {
            if (rpoIndex[h] <= rpoIndex[a])
                retreating.emplace_back(a, h);
        }
    }
    if (retreating.empty())
        return info;

    // Number the dominator tree (pre/post order, iteratively) so that
    // "h dominates a" is two comparisons. Children of b sit at
    // child[childOff[b] .. childOff[b + 1]).
    std::vector<std::size_t> childOff(n + 1, 0);
    for (std::size_t b : order) {
        if (b != cfg.entry())
            ++childOff[info.idom[b] + 1];
    }
    for (std::size_t b = 0; b < n; ++b)
        childOff[b + 1] += childOff[b];
    std::vector<std::size_t> child(order.size());
    std::vector<std::size_t> cursor(childOff.begin(), childOff.end() - 1);
    for (std::size_t b : order) {
        if (b != cfg.entry())
            child[cursor[info.idom[b]]++] = b;
    }
    std::vector<std::size_t> pre(n), post(n), stack;
    std::size_t clock = 0;
    cursor.assign(childOff.begin(), childOff.end() - 1);
    stack.push_back(cfg.entry());
    pre[cfg.entry()] = clock++;
    while (!stack.empty()) {
        const std::size_t b = stack.back();
        if (cursor[b] < childOff[b + 1]) {
            const std::size_t c = child[cursor[b]++];
            pre[c] = clock++;
            stack.push_back(c);
        } else {
            post[b] = clock++;
            stack.pop_back();
        }
    }
    const auto dominates = [&](std::size_t h, std::size_t a) {
        return pre[h] <= pre[a] && post[a] <= post[h];
    };

    for (const auto &[a, h] : retreating) {
        if (dominates(h, a))
            info.backEdges.emplace_back(a, h);
    }

    // Natural loop bodies: header plus everything reaching the latch
    // without passing through the header. One stamp array serves every
    // walk: stamp k marks the blocks back edge k has visited.
    std::vector<std::size_t> stamp(n, 0);
    for (std::size_t k = 0; k < info.backEdges.size(); ++k) {
        const auto [latch, header] = info.backEdges[k];
        const std::size_t mark = k + 1;
        info.inLoop[header] = true;
        stamp[header] = mark;
        stack.clear();
        stack.push_back(latch);
        while (!stack.empty()) {
            const std::size_t b = stack.back();
            stack.pop_back();
            if (stamp[b] == mark)
                continue;
            stamp[b] = mark;
            info.inLoop[b] = true;
            for (std::size_t p : cfg.preds(b))
                stack.push_back(p);
        }
    }

    // Loop-controlling branches: headers and latches containing a
    // conditional side exit.
    auto containsBranch = [&](std::size_t b) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == ir::StmtKind::Branch)
                return true;
        }
        return false;
    };
    for (const auto &[latch, header] : info.backEdges) {
        if (containsBranch(header))
            info.controlsLoop[header] = true;
        if (containsBranch(latch))
            info.controlsLoop[latch] = true;
    }

    return info;
}

} // namespace fits::analysis
