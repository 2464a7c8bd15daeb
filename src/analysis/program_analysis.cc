#include "program_analysis.hh"

#include <cassert>

namespace fits::analysis {

ProgramAnalysis
ProgramAnalysis::analyze(const LinkedProgram &linked,
                         const UcseConfig &config)
{
    std::vector<FunctionAnalysis> fns;
    fns.reserve(linked.fnCount());
    for (FnId id = 0; id < linked.fnCount(); ++id) {
        const auto &ref = linked.fn(id);
        fns.push_back(FunctionAnalysis::analyze(*ref.image, *ref.fn,
                                                config));
    }
    return fromFunctionAnalyses(linked, std::move(fns));
}

ProgramAnalysis
ProgramAnalysis::fromFunctionAnalyses(const LinkedProgram &linked,
                                      std::vector<FunctionAnalysis> fns)
{
    assert(fns.size() == linked.fnCount());
    ProgramAnalysis pa;
    pa.linked = &linked;
    pa.fns = std::move(fns);

    pa.callGraph = CallGraph::build(linked, pa.fns);
    return pa;
}

} // namespace fits::analysis
