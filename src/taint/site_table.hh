#ifndef FITS_TAINT_SITE_TABLE_HH_
#define FITS_TAINT_SITE_TABLE_HH_

#include <unordered_map>
#include <vector>

#include "analysis/program_analysis.hh"
#include "taint/common.hh"

namespace fits::taint {

/** Source index of a site that names no source. */
constexpr std::size_t kNoSource = static_cast<std::size_t>(-1);

/** What one call site means to a taint engine. */
struct SiteRole
{
    /** The sink the target's name denotes, or nullptr. */
    const SinkSpec *sink = nullptr;
    /** Index of the CTS the target's name denotes, or kNoSource. */
    std::size_t cts = kNoSource;
    /** Index of the ITS the target function is, or kNoSource. */
    std::size_t its = kNoSource;
    /** The target's name is a library function whose primary effect
     * is writing caller memory (strcpy, memcpy, sprintf, ...): the
     * source operands' taint lands in the argument-0 buffer. */
    bool memoryWriter = false;
    bool resolved = false;
};

/**
 * The lookup tables one engine run shares across all its visits: the
 * image index of every function (memory cells are keyed per image) and
 * each call site's role. A role is resolved from the site's target
 * name and callee on first use, so a site visited many times costs one
 * set of string lookups per run instead of one per visit.
 */
class SiteTable
{
  public:
    SiteTable(const analysis::ProgramAnalysis &pa,
              const std::vector<TaintSource> &sources);

    /** Index of the image `id` lives in, numbered in FnId order of
     * first appearance. */
    std::size_t
    imageOf(analysis::FnId id) const
    {
        return fnImage_[id];
    }

    /** Role of pa.callGraph.sites()[siteIdx]. */
    const SiteRole &
    role(std::size_t siteIdx)
    {
        SiteRole &r = roles_[siteIdx];
        if (!r.resolved)
            resolve(siteIdx, r);
        return r;
    }

  private:
    void resolve(std::size_t siteIdx, SiteRole &role) const;

    const analysis::ProgramAnalysis &pa_;
    std::vector<std::size_t> fnImage_;
    std::unordered_map<std::string, std::size_t> ctsByName_;
    std::unordered_map<analysis::FnId, std::size_t> itsByFn_;
    std::vector<SiteRole> roles_;
};

} // namespace fits::taint

#endif // FITS_TAINT_SITE_TABLE_HH_
