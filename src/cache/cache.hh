#ifndef FITS_CACHE_CACHE_HH_
#define FITS_CACHE_CACHE_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/function_analysis.hh"
#include "binary/image.hh"
#include "support/result.hh"

namespace fits::cache {

/**
 * Analysis reuse across samples, in two independent parts:
 *
 *  - *Library tier (memory):* dependency libraries, content-keyed by
 *    their FBIN bytes (`loadLibrary`). Each entry holds one lifted
 *    library image plus its function analyses, one vector per UCSE
 *    config fingerprint (`functionAnalyses`). A library that N corpus
 *    images ship is lifted and UCSE-analyzed once per process in the
 *    common case; workers that miss on the same key concurrently each
 *    compute it, and every caller then gets the one resident instance.
 *    Main binaries are never held here: each is unique to its sample,
 *    so the pipeline lifts and analyzes it directly.
 *  - *Behavior blobs (disk):* an optional persistent store of
 *    serialized whole-sample products under a cache directory
 *    (`FITS_CACHE_DIR` or `configure()`), with a versioned,
 *    checksummed entry format. Any validation failure — bad magic,
 *    version skew, length or checksum mismatch, a short read — quietly
 *    degrades to a miss; repeated `fits corpus` invocations become
 *    incremental.
 *
 * Correctness rules, enforced here and relied on by the determinism
 * test suite:
 *  - Results are bit-identical with and without the cache, and across
 *    hits vs. misses: library entries are shared immutable objects,
 *    and blobs store doubles by bit pattern.
 *  - Caching is bypassed whenever fault injection is armed outside the
 *    "cache." sites (`chaos::rulesConfinedTo`): a fault that fires
 *    inside a cached computation must neither be masked by a hit nor
 *    baked into a stored entry.
 *  - Callers must additionally bypass when a wall-clock deadline is
 *    active (partial results are not reusable); `functionAnalyses`
 *    checks this itself.
 *
 * Nothing is ever evicted: `Options::maxBytes` is an admission cap (a
 * library or analysis vector that would exceed it is computed but not
 * stored), and disk entries are invalidated by version/fingerprint and
 * can be deleted freely by the operator.
 */

struct Options
{
    /** In-process library tier. */
    bool memory = true;
    /** Persistent blob tier; requires a non-empty `dir`. */
    bool disk = false;
    /** Disk tier root directory (created on first store). */
    std::string dir;
    /** Approximate library-tier admission cap in bytes. */
    std::size_t maxBytes = 256ull << 20;
};

/** Replace the active options. Never clears cached entries — disable
 * tiers to stop consulting them, `clearMemory()` to drop them. */
void configure(const Options &options);

Options options();

/** Drop every resident library (tests; frees the admission budget). */
void clearMemory();

/** Monotonic counters since the last resetStats(). `bytes` is the
 * current approximate library-tier footprint (not monotonic). */
struct Stats
{
    std::uint64_t hits = 0;       ///< library-tier hits
    std::uint64_t misses = 0;     ///< library-tier misses
    std::uint64_t diskHits = 0;   ///< disk-tier hits
    std::uint64_t diskMisses = 0; ///< disk-tier misses
    std::uint64_t diskCorrupt = 0; ///< disk entries rejected as invalid
    std::uint64_t bytes = 0;      ///< current library-tier bytes
};

Stats stats();
void resetStats();

/** True when the library tier may be consulted right now (enabled and
 * fault injection, if armed, is confined to "cache." sites). */
bool memoryUsable();

/** Same gate for the disk tier (also requires a directory). */
bool diskUsable();

/**
 * Load (lift) a dependency library through the library tier: bytes are
 * content-hashed and the parsed image is shared — every caller passing
 * the same bytes gets the same immutable instance while it is
 * resident, so its cached `FunctionAnalysis::image`/`fn` pointers line
 * up with each caller's LinkedProgram. On bypass, or past the
 * admission cap, loads directly. Load failures are returned as-is and
 * never cached.
 */
support::Result<std::shared_ptr<const bin::BinaryImage>>
loadLibrary(const std::vector<std::uint8_t> &bytes);

/**
 * Function analyses of `image` under `config`, in `image->program`
 * order (the LinkedProgram's per-image order); the returned vector
 * owns a reference to the image. For a resident library the vector is
 * kept per config fingerprint and shared; for any other image (a main
 * binary, a library past the cap) — or when the tier is bypassed or
 * `config.deadline` is active — it is computed directly and stored
 * nowhere.
 */
std::shared_ptr<const std::vector<analysis::FunctionAnalysis>>
functionAnalyses(const std::shared_ptr<const bin::BinaryImage> &image,
                 const analysis::UcseConfig &config);

/** Fingerprint of the UCSE knobs that shape analysis results (the
 * deadline is excluded — deadline-bearing runs bypass the cache). */
std::uint64_t fingerprintOf(const analysis::UcseConfig &config);

/**
 * Fetch a serialized product from the disk tier; nullopt when the tier
 * is unusable or the entry is missing or invalid. `kind` namespaces
 * independent products ("behavior", ...); keys are caller-derived
 * hashes (content hash + config fingerprint).
 */
std::optional<std::string> fetchBlob(std::string_view kind,
                                     std::uint64_t key1,
                                     std::uint64_t key2);

/** Store a serialized product on disk when the tier is usable. Write
 * failures (including injected "cache.write" faults) skip the entry
 * silently — the cache is an accelerator, never a correctness
 * dependency. */
void storeBlob(std::string_view kind, std::uint64_t key1,
               std::uint64_t key2, std::string_view payload);

/** Disk path a blob entry would use (tests poke at entries to corrupt
 * them); empty when no directory is configured. */
std::string blobPath(std::string_view kind, std::uint64_t key1,
                     std::uint64_t key2);

} // namespace fits::cache

#endif // FITS_CACHE_CACHE_HH_
