#include "cache.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <utility>

#include <unistd.h>

#include "binary/fbin.hh"
#include "cache/fingerprint.hh"
#include "chaos/chaos.hh"
#include "obs/metrics.hh"
#include "support/strings.hh"

namespace fits::cache {

namespace {

/** Bumps when the meaning of any fingerprint input changes. */
constexpr std::uint64_t kAnalysisFingerprintVersion = 1;

/** Disk entry format version; a mismatch reads as a miss. Version 2
 * checksums the payload with support::hash64 (version 1: fnv1a). */
constexpr std::uint32_t kDiskFormatVersion = 2;
constexpr char kDiskMagic[4] = {'F', 'C', 'H', '1'};
/** Magic, version, both keys, payload size, payload checksum. */
constexpr std::size_t kDiskHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

// ---- counters (lock-free; the mutex below guards only the maps) ----

struct Counters
{
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> diskHits{0};
    std::atomic<std::uint64_t> diskMisses{0};
    std::atomic<std::uint64_t> diskCorrupt{0};
};

Counters &
counters()
{
    static auto *c = new Counters;
    return *c;
}

void
bumpHit()
{
    counters().hits.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        obs::addCounter("cache.hits");
}

void
bumpMiss()
{
    counters().misses.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        obs::addCounter("cache.misses");
}

void
bumpDisk(bool hit)
{
    auto &c = hit ? counters().diskHits : counters().diskMisses;
    c.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
        obs::addCounter(hit ? "cache.disk.hits"
                            : "cache.disk.misses");
    }
}

void
bumpDiskCorrupt()
{
    counters().diskCorrupt.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled())
        obs::addCounter("cache.disk.corrupt");
}

// ---- library tier --------------------------------------------------

/** A lifted image together with one config's analysis products. The
 * two travel as one object so shared `FunctionAnalysis::image`/`fn`
 * pointers can never outlive — or diverge from — their image. */
struct AnalyzedImage
{
    std::shared_ptr<const bin::BinaryImage> image;
    std::vector<analysis::FunctionAnalysis> fns;
};

/** One resident library: the lifted image plus its analyses, one
 * product per UCSE config fingerprint. */
struct Library
{
    std::shared_ptr<const bin::BinaryImage> image;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const AnalyzedImage>>
        analyses;
};

struct State
{
    std::mutex mutex;
    Options options;
    std::size_t totalBytes = 0;
    /** FNV-1a of the library's FBIN bytes -> resident library. */
    std::unordered_map<std::uint64_t, Library> libraries;
};

State &
state()
{
    // Leaked singleton (mirrors obs/chaos): cached products may be
    // referenced from worker threads during static destruction.
    static auto *s = new State;
    return *s;
}

/** FITS_CACHE_DIR arms the disk tier at load time. */
struct EnvInit
{
    EnvInit()
    {
        const char *env = std::getenv("FITS_CACHE_DIR");
        if (env == nullptr || *env == '\0')
            return;
        State &s = state();
        const std::lock_guard<std::mutex> lock(s.mutex);
        s.options.disk = true;
        s.options.dir = env;
    }
};

const EnvInit g_envInit;

void
publishBytesLocked(const State &s)
{
    if (obs::enabled())
        obs::setGauge("cache.bytes",
                      static_cast<double>(s.totalBytes));
}

/** Rough footprint of a lifted image: section bytes dominate; code
 * statements and tables ride on fixed per-item estimates. */
std::size_t
approxImageBytes(const bin::BinaryImage &image)
{
    std::size_t total = sizeof(bin::BinaryImage) + 1024;
    total += image.byteSize();
    for (const auto &fn : image.program.functions()) {
        total += 128 + fn.blocks.size() * 64;
        for (const auto &block : fn.blocks)
            total += block.stmts.size() * sizeof(ir::Stmt);
    }
    return total;
}

std::size_t
approxAnalysesBytes(const AnalyzedImage &product)
{
    std::size_t total = sizeof(AnalyzedImage);
    for (const auto &fa : product.fns) {
        total += sizeof(analysis::FunctionAnalysis) + 256;
        std::size_t stmts = 0;
        for (const auto &block : fa.fn->blocks)
            stmts += block.stmts.size();
        // CFG, loop and per-block mask vectors scale with block
        // count; the constant map and dependence masks with statements.
        total += fa.fn->blocks.size() * 96 + stmts * 16;
    }
    return total;
}

/** The resident library whose image is `image`, or nullptr. A scan:
 * a process holds a handful of distinct libraries. */
Library *
residentLocked(State &s, const bin::BinaryImage *image)
{
    for (auto &[key, library] : s.libraries) {
        if (library.image.get() == image)
            return &library;
    }
    return nullptr;
}

/** Charge `bytes` to the tier if they fit under the admission cap. */
bool
admitLocked(State &s, std::size_t bytes)
{
    if (s.totalBytes + bytes > s.options.maxBytes)
        return false;
    s.totalBytes += bytes;
    publishBytesLocked(s);
    return true;
}

// ---- disk tier -----------------------------------------------------

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
getU32(std::string_view in, std::size_t &pos, std::uint32_t &v)
{
    if (in.size() - pos < 4)
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(in[pos + i]))
             << (8 * i);
    pos += 4;
    return true;
}

bool
getU64(std::string_view in, std::size_t &pos, std::uint64_t &v)
{
    if (in.size() - pos < 8)
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[pos + i]))
             << (8 * i);
    pos += 8;
    return true;
}

/** Read + validate one disk entry; nullopt on any defect. The file is
 * read whole in one sized read, and the header is erased in place, so
 * the returned payload is the buffer the bytes were read into. */
std::optional<std::string>
readDiskEntry(const std::string &path, std::uint64_t key1,
              std::uint64_t key2)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return std::nullopt;
    const std::streamoff fileSize = in.tellg();
    if (fileSize < 0)
        return std::nullopt;
    std::string raw(static_cast<std::size_t>(fileSize), '\0');
    in.seekg(0);
    if (!in.read(raw.data(), fileSize))
        return std::nullopt;

    const auto corrupt = [] {
        bumpDiskCorrupt();
        return std::nullopt;
    };

    std::size_t pos = 0;
    if (raw.size() < 4 ||
        raw.compare(0, 4, kDiskMagic, 4) != 0)
        return corrupt();
    pos = 4;
    std::uint32_t version = 0;
    std::uint64_t k1 = 0, k2 = 0, size = 0, checksum = 0;
    if (!getU32(raw, pos, version) || !getU64(raw, pos, k1) ||
        !getU64(raw, pos, k2) || !getU64(raw, pos, size) ||
        !getU64(raw, pos, checksum))
        return corrupt();
    if (version != kDiskFormatVersion || k1 != key1 || k2 != key2)
        return corrupt();
    if (raw.size() - pos != size)
        return corrupt();
    if (support::hash64(std::string_view(raw).substr(pos)) != checksum)
        return corrupt();
    raw.erase(0, pos);
    return raw;
}

/** Write one disk entry atomically (temp file + rename). Failures are
 * swallowed: a cache store that does not land is just a future miss.
 * The temp name is unique per process (pid) and per write within it
 * (counter), so concurrent writers sharing a cache directory never
 * write into the same temp file. */
void
writeDiskEntry(const std::string &path, std::uint64_t key1,
               std::uint64_t key2, std::string_view payload)
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    if (ec)
        return;

    std::string header;
    header.reserve(kDiskHeaderBytes);
    header.append(kDiskMagic, 4);
    putU32(header, kDiskFormatVersion);
    putU64(header, key1);
    putU64(header, key2);
    putU64(header, payload.size());
    putU64(header, support::hash64(payload));

    static std::atomic<std::uint64_t> tmpCounter{0};
    const std::string tmp = path + support::format(
        ".tmp.%lld.%llu", static_cast<long long>(::getpid()),
        static_cast<unsigned long long>(
            tmpCounter.fetch_add(1, std::memory_order_relaxed)));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            out.close();
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

/** Aliasing view of the product's analysis vector; keeps the image
 * (and the whole product) alive through the returned pointer. */
std::shared_ptr<const std::vector<analysis::FunctionAnalysis>>
fnsView(std::shared_ptr<const AnalyzedImage> product)
{
    const auto *fns = &product->fns;
    return {std::move(product), fns};
}

std::shared_ptr<const AnalyzedImage>
computeAnalyses(const std::shared_ptr<const bin::BinaryImage> &image,
                const analysis::UcseConfig &config)
{
    auto product = std::make_shared<AnalyzedImage>();
    product->image = image;
    product->fns.reserve(image->program.size());
    for (const auto &fn : image->program.functions()) {
        product->fns.push_back(
            analysis::FunctionAnalysis::analyze(*image, fn, config));
    }
    return product;
}

} // namespace

void
configure(const Options &options)
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.options = options;
}

Options
options()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.options;
}

void
clearMemory()
{
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.libraries.clear();
    s.totalBytes = 0;
    publishBytesLocked(s);
}

Stats
stats()
{
    Stats out;
    const Counters &c = counters();
    out.hits = c.hits.load(std::memory_order_relaxed);
    out.misses = c.misses.load(std::memory_order_relaxed);
    out.diskHits = c.diskHits.load(std::memory_order_relaxed);
    out.diskMisses = c.diskMisses.load(std::memory_order_relaxed);
    out.diskCorrupt = c.diskCorrupt.load(std::memory_order_relaxed);
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    out.bytes = s.totalBytes;
    return out;
}

void
resetStats()
{
    Counters &c = counters();
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
    c.diskHits.store(0, std::memory_order_relaxed);
    c.diskMisses.store(0, std::memory_order_relaxed);
    c.diskCorrupt.store(0, std::memory_order_relaxed);
}

bool
memoryUsable()
{
    if (!chaos::rulesConfinedTo("cache."))
        return false;
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.options.memory;
}

bool
diskUsable()
{
    if (!chaos::rulesConfinedTo("cache."))
        return false;
    State &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    return s.options.disk && !s.options.dir.empty();
}

std::uint64_t
fingerprintOf(const analysis::UcseConfig &config)
{
    return Fingerprint()
        .mix(kAnalysisFingerprintVersion)
        .mix(static_cast<std::uint64_t>(config.maxSteps))
        .mix(static_cast<std::uint64_t>(config.maxVisitsPerBlock))
        .value();
}

support::Result<std::shared_ptr<const bin::BinaryImage>>
loadLibrary(const std::vector<std::uint8_t> &bytes)
{
    using R = support::Result<std::shared_ptr<const bin::BinaryImage>>;
    const bool usable = memoryUsable();
    const std::uint64_t key =
        usable ? support::fnv1a(bytes.data(), bytes.size()) : 0;
    State &s = state();
    if (usable) {
        const std::lock_guard<std::mutex> lock(s.mutex);
        auto it = s.libraries.find(key);
        if (it != s.libraries.end()) {
            bumpHit();
            return R::ok(it->second.image);
        }
    }

    // Lift outside the lock; a concurrent miss on the same bytes lifts
    // its own copy and the insert below keeps whichever landed first.
    // Only the request whose entry lands counts the miss; one that
    // finds an entry landed meanwhile counts a hit, so the counts do
    // not depend on thread timing.
    auto loaded = bin::loadBinary(bytes);
    if (!loaded) {
        if (usable)
            bumpMiss();
        return R::error(loaded.status());
    }
    auto image = std::make_shared<const bin::BinaryImage>(loaded.take());
    if (!usable)
        return R::ok(std::move(image));

    const std::size_t entryBytes = approxImageBytes(*image);
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.libraries.find(key);
    if (it != s.libraries.end()) {
        bumpHit();
        return R::ok(it->second.image);
    }
    bumpMiss();
    if (admitLocked(s, entryBytes))
        s.libraries.emplace(key, Library{image, {}});
    return R::ok(std::move(image));
}

std::shared_ptr<const std::vector<analysis::FunctionAnalysis>>
functionAnalyses(const std::shared_ptr<const bin::BinaryImage> &image,
                 const analysis::UcseConfig &config)
{
    // An active deadline makes results timing-dependent (partial
    // exploration); never share or store those.
    if (config.deadline.active() || !memoryUsable())
        return fnsView(computeAnalyses(image, config));

    const std::uint64_t fingerprint = fingerprintOf(config);
    State &s = state();
    bool resident = false;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        if (Library *library = residentLocked(s, image.get())) {
            auto it = library->analyses.find(fingerprint);
            if (it != library->analyses.end()) {
                bumpHit();
                return fnsView(it->second);
            }
            resident = true;
        }
    }
    // Not a resident library (a main binary, or one past the cap):
    // nothing to share, so nothing to store.
    if (!resident)
        return fnsView(computeAnalyses(image, config));

    auto product = computeAnalyses(image, config);
    const std::size_t entryBytes = approxAnalysesBytes(*product);
    const std::lock_guard<std::mutex> lock(s.mutex);
    // The library may have been dropped (clearMemory) meanwhile, and a
    // concurrent miss may already have stored its product: that
    // request counted the miss, this one counts a hit.
    Library *library = residentLocked(s, image.get());
    if (library == nullptr) {
        bumpMiss();
        return fnsView(std::move(product));
    }
    auto it = library->analyses.find(fingerprint);
    if (it != library->analyses.end()) {
        bumpHit();
        return fnsView(it->second);
    }
    bumpMiss();
    if (admitLocked(s, entryBytes))
        library->analyses.emplace(fingerprint, product);
    return fnsView(std::move(product));
}

std::string
blobPath(std::string_view kind, std::uint64_t key1,
         std::uint64_t key2)
{
    State &s = state();
    std::string dir;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        dir = s.options.dir;
    }
    if (dir.empty())
        return {};
    return dir + "/" + std::string(kind) +
           support::format("-%016llx%016llx.fcb",
                           static_cast<unsigned long long>(key1),
                           static_cast<unsigned long long>(key2));
}

std::optional<std::string>
fetchBlob(std::string_view kind, std::uint64_t key1,
          std::uint64_t key2)
{
    if (!diskUsable())
        return std::nullopt;

    // Injected read fault: the entry is unreadable; degrade to a miss.
    if (chaos::shouldInject("cache.read")) {
        bumpDiskCorrupt();
        bumpDisk(false);
        return std::nullopt;
    }

    auto payload =
        readDiskEntry(blobPath(kind, key1, key2), key1, key2);
    bumpDisk(payload.has_value());
    return payload;
}

void
storeBlob(std::string_view kind, std::uint64_t key1,
          std::uint64_t key2, std::string_view payload)
{
    if (!diskUsable())
        return;
    if (chaos::shouldInject("cache.write"))
        return; // injected write fault: entry never lands
    writeDiskEntry(blobPath(kind, key1, key2), key1, key2, payload);
}

} // namespace fits::cache
