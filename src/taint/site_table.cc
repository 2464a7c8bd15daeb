#include "site_table.hh"

#include <algorithm>
#include <string_view>

namespace fits::taint {

namespace {

bool
isMemoryWriter(const std::string &name)
{
    static constexpr std::string_view kWriters[] = {
        "strcpy", "strncpy", "strcat", "strncat", "memcpy",
        "memmove", "sprintf", "snprintf",
    };
    return std::find(std::begin(kWriters), std::end(kWriters), name) !=
           std::end(kWriters);
}

} // namespace

SiteTable::SiteTable(const analysis::ProgramAnalysis &pa,
                     const std::vector<TaintSource> &sources)
    : pa_(pa)
{
    const std::size_t n = pa.linked->fnCount();
    fnImage_.resize(n);
    std::vector<const bin::BinaryImage *> images;
    for (analysis::FnId id = 0; id < n; ++id) {
        const auto *image = pa.linked->fn(id).image;
        auto it = std::find(images.begin(), images.end(), image);
        if (it == images.end())
            it = images.insert(it, image);
        fnImage_[id] = static_cast<std::size_t>(it - images.begin());
    }

    for (std::size_t i = 0; i < sources.size(); ++i) {
        if (sources[i].kind == TaintSource::Kind::Cts) {
            ctsByName_[sources[i].name] = i;
        } else {
            auto fnId = pa.linked->fnIdOf(&pa.linked->mainImage(),
                                          sources[i].entry);
            if (fnId)
                itsByFn_[*fnId] = i;
        }
    }
    roles_.resize(pa.callGraph.sites().size());
}

void
SiteTable::resolve(std::size_t siteIdx, SiteRole &role) const
{
    const auto &site = pa_.callGraph.sites()[siteIdx];
    const std::string &name = site.target.name;
    role.resolved = true;
    if (!name.empty()) {
        role.sink = sinkByName(name);
        role.memoryWriter = isMemoryWriter(name);
        if (auto it = ctsByName_.find(name); it != ctsByName_.end())
            role.cts = it->second;
    }
    if (site.resolvesToFunction()) {
        if (auto it = itsByFn_.find(site.target.fn); it != itsByFn_.end())
            role.its = it->second;
    }
}

} // namespace fits::taint
