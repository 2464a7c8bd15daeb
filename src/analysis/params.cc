#include "params.hh"

#include "ir/types.hh"

namespace fits::analysis {

ParamInfo
inferParams(const Cfg &cfg, const ir::Function &fn)
{
    using ir::kNumArgRegs;
    const std::size_t n = fn.blocks.size();
    ParamInfo info;
    if (n == 0)
        return info;

    constexpr std::uint8_t kAll = (1u << kNumArgRegs) - 1;

    // writtenIn[b]: arg registers written on *all* paths from the entry
    // to the start of b (must-analysis, intersection at joins). Only
    // the blocks reachable from the entry take part: an unreachable
    // block keeps kAll, the identity of the intersection, so it would
    // change nothing where it flows into a reachable one.
    std::vector<std::uint8_t> writtenIn(n, kAll);
    writtenIn[cfg.entry()] = 0;

    // Per-block transfer: registers PUT anywhere in the block (once a
    // block both reads and writes, the read is handled in the use scan
    // below with intra-block ordering).
    const auto order = cfg.rpo();
    std::vector<std::uint8_t> writeMask(n, 0);
    for (std::size_t b : order) {
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == ir::StmtKind::Put &&
                stmt.reg < kNumArgRegs) {
                writeMask[b] |= static_cast<std::uint8_t>(1u << stmt.reg);
            }
            // A call clobbers the argument registers.
            if (stmt.kind == ir::StmtKind::Call)
                writeMask[b] = kAll;
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t b : order) {
            const std::uint8_t out =
                static_cast<std::uint8_t>(writtenIn[b] | writeMask[b]);
            for (std::size_t s : cfg.succs(b)) {
                const std::uint8_t merged =
                    static_cast<std::uint8_t>(writtenIn[s] & out);
                if (merged != writtenIn[s]) {
                    writtenIn[s] = merged;
                    changed = true;
                }
            }
        }
    }

    // Use scan with intra-block ordering.
    for (std::size_t b : order) {
        std::uint8_t written = writtenIn[b];
        for (const auto &stmt : fn.blocks[b].stmts) {
            if (stmt.kind == ir::StmtKind::Get &&
                stmt.reg < kNumArgRegs) {
                const auto bit =
                    static_cast<std::uint8_t>(1u << stmt.reg);
                if ((written & bit) == 0)
                    info.usedMask |= bit;
            } else if (stmt.kind == ir::StmtKind::Put &&
                       stmt.reg < kNumArgRegs) {
                written |= static_cast<std::uint8_t>(1u << stmt.reg);
            } else if (stmt.kind == ir::StmtKind::Call) {
                written = kAll;
            }
        }
    }

    for (int i = 0; i < kNumArgRegs; ++i) {
        if (info.usedMask & (1u << i))
            info.count = i + 1;
    }
    return info;
}

} // namespace fits::analysis
