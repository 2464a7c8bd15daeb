#include "constmap.hh"

#include <algorithm>

namespace fits::analysis {

TmpConstMap
TmpConstMap::compute(const ir::Function &fn, const bin::BinaryImage *image)
{
    TmpConstMap map;

    // Phase 1: temporaries with more than one definition are never
    // treated as constant (flow-insensitivity would conflate paths).
    std::size_t width = 0;
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (stmt.definesTmp())
                width = std::max<std::size_t>(width, stmt.dst + 1u);
        }
    }
    map.slots_.resize(width);
    std::size_t pending = 0; // single-definition temporaries not folded
    for (const auto &block : fn.blocks) {
        for (const auto &stmt : block.stmts) {
            if (!stmt.definesTmp())
                continue;
            State &state = map.slots_[stmt.dst].state;
            if (state == State::NoDef) {
                state = State::OneDef;
                ++pending;
            } else if (state == State::OneDef) {
                state = State::Conflicted;
                --pending;
            }
        }
    }

    // Phase 2: fold single-definition temporaries to a fixpoint. A
    // Binop/Load may only fold after its inputs did, so iterate until
    // no new values appear.
    const auto fold = [&map, &pending](ir::TmpId t, std::uint64_t v) {
        map.slots_[t] = {v, State::Known};
        ++map.known_;
        --pending;
    };
    bool changed = true;
    while (changed && pending > 0) {
        changed = false;
        for (const auto &block : fn.blocks) {
            for (const auto &stmt : block.stmts) {
                if (!stmt.definesTmp() ||
                    map.slots_[stmt.dst].state != State::OneDef) {
                    continue;
                }
                switch (stmt.kind) {
                  case ir::StmtKind::Const:
                    fold(stmt.dst, stmt.a.imm);
                    changed = true;
                    break;
                  case ir::StmtKind::Binop: {
                    auto lhs = map.valueOf(stmt.a);
                    auto rhs = map.valueOf(stmt.b);
                    if (lhs && rhs) {
                        fold(stmt.dst, ir::evalBinOp(stmt.op, *lhs, *rhs));
                        changed = true;
                    }
                    break;
                  }
                  case ir::StmtKind::Load: {
                    // Only read-only memory is stable enough to fold.
                    auto addr = map.valueOf(stmt.a);
                    if (addr && image != nullptr &&
                        image->isRodata(*addr)) {
                        if (auto word = image->readWord(*addr)) {
                            fold(stmt.dst, *word);
                            changed = true;
                        }
                    }
                    break;
                  }
                  default:
                    break; // Get never folds
                }
            }
        }
    }

    return map;
}

std::optional<std::uint64_t>
TmpConstMap::valueOf(ir::TmpId t) const
{
    if (t >= slots_.size() || slots_[t].state != State::Known)
        return std::nullopt;
    return slots_[t].value;
}

std::optional<std::uint64_t>
TmpConstMap::valueOf(const ir::Operand &op) const
{
    if (op.isImm())
        return op.imm;
    return valueOf(op.tmp);
}

} // namespace fits::analysis
