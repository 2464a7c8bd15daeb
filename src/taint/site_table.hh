#ifndef FITS_TAINT_SITE_TABLE_HH_
#define FITS_TAINT_SITE_TABLE_HH_

#include <map>
#include <unordered_map>
#include <vector>

#include "analysis/program_analysis.hh"
#include "taint/common.hh"
#include "taint/labels.hh"

namespace fits::taint {

/** A taint mask over one run's label table (see LabelTable). */
using Mask = std::uint64_t;

/** Memory cells are keyed per image so overlapping address spaces of
 * the main binary and its libraries do not alias. */
using CellKey = std::uint64_t;

inline CellKey
cellKey(std::size_t imageIdx, ir::Addr addr)
{
    return (static_cast<CellKey>(imageIdx) << 48) | addr;
}

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
 * The lookup tables and results one engine run shares across all its
 * visits: the label bits of every source, the image index of every
 * function (memory cells are keyed per image), each call site's role
 * and ITS seed label, and the alerts found so far. A role or label is
 * resolved on first use, so a site visited many times costs one set
 * of string lookups per run instead of one per visit.
 */
class SiteTable
{
  public:
    SiteTable(const analysis::ProgramAnalysis &pa,
              const std::vector<TaintSource> &sources);

    const LabelTable &labels() const { return labels_; }

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

    /** Seed label of ITS `sourceIdx` at call site `siteIdx`: its
     * system-data bit when the key string the caller passes (resolved
     * with the Table-2 backtracker, as the paper's string matching
     * does) is a system-data key, else its user-data bit. */
    Mask itsLabelAt(std::size_t siteIdx, std::size_t sourceIdx);

    /** Record that `mask` reaches `sink` at `sinkSite` in `inFn`; one
     * alert per (image, sink site) accumulates every mask. */
    void recordAlert(analysis::FnId inFn, ir::Addr sinkSite,
                     const SinkSpec &sink, Mask mask);

    /** A report holding the label table and the recorded alerts in
     * sortAlerts order; the alerts are moved out. */
    TaintReport takeReport();

  private:
    void resolve(std::size_t siteIdx, SiteRole &role) const;

    const analysis::ProgramAnalysis &pa_;
    LabelTable labels_;
    std::vector<std::size_t> fnImage_;
    std::unordered_map<std::string, std::size_t> ctsByName_;
    std::unordered_map<analysis::FnId, std::size_t> itsByFn_;
    std::vector<SiteRole> roles_;
    /** ITS call-site label cache: site index -> seed bit. */
    std::unordered_map<std::size_t, Mask> itsSiteLabel_;
    std::map<std::pair<std::size_t, ir::Addr>, Alert> alerts_;
};

} // namespace fits::taint

#endif // FITS_TAINT_SITE_TABLE_HH_
