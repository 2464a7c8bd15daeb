#include "chaos.hh"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "support/strings.hh"

namespace fits::chaos {

namespace {

using support::Stage;

std::atomic<bool> g_enabled{false};

/** The static fault-site catalog. Site names are stable; fire
 * decisions hash the name, never the catalog position. */
const std::vector<SiteInfo> &
catalog()
{
    static const std::vector<SiteInfo> sites = {
        {"unpack.magic", Stage::Unpack,
         "firmware magic scan fails (unrecognized container)"},
        {"unpack.header", Stage::Unpack,
         "firmware header decode fails as if truncated"},
        {"unpack.payload", Stage::Unpack,
         "payload checksum verification fails (corrupt image)"},
        {"fs.filetable", Stage::Filesystem,
         "file-table parse fails (malformed entry)"},
        {"select.binary", Stage::Select,
         "network-binary selection finds no candidate"},
        {"select.library", Stage::Select,
         "a dependency library fails to lift (degraded target)"},
        {"fbin.load", Stage::Lift,
         "FBIN decode rejects the binary outright"},
        {"fbin.truncate", Stage::Lift,
         "FBIN decode sees only the front half of the buffer"},
        {"ucse.explore", Stage::Ucse,
         "symbolic exploration aborts before the first step"},
        {"flow.reachdef", Stage::Flow,
         "parameter dataflow aborts before its fixpoint (zero masks)"},
        {"infer.rank", Stage::Infer,
         "inference reports an empty ranking as a failure"},
        {"taint.sta", Stage::Taint,
         "STA fixpoint aborts at an expired deadline (partial alerts)"},
        {"taint.karonte", Stage::Taint,
         "Karonte exploration aborts at an expired deadline "
         "(partial alerts)"},
        {"cache.read", Stage::Io,
         "a persistent cache entry fails to read (degrades to a "
         "miss)"},
        {"cache.write", Stage::Io,
         "a persistent cache entry fails to write (entry skipped)"},
    };
    return sites;
}

constexpr std::size_t kMaxSites = 64;

/** name -> catalog index, built once. */
const std::unordered_map<std::string_view, std::size_t> &
siteIndex()
{
    static const auto *index = [] {
        auto *m =
            new std::unordered_map<std::string_view, std::size_t>;
        const auto &sites = catalog();
        assert(sites.size() <= kMaxSites);
        for (std::size_t i = 0; i < sites.size(); ++i)
            m->emplace(sites[i].name, i);
        return m;
    }();
    return *index;
}

struct Rule
{
    std::string pattern; ///< exact name, "prefix*", or "*"
    int percent = 100;   ///< deterministic fire probability per hit
    std::uint64_t maxFires = 0; ///< 0 = unlimited
};

struct Config
{
    std::vector<Rule> rules;
    std::uint64_t seed = 1;
};

/** Active spec. Swapped whole on configure(); superseded configs are
 * retired to an immortal list (never freed) so in-flight readers
 * (workers mid-shouldInject) never see a dead pointer. Tests
 * reconfigure between runs, not during them. */
std::atomic<const Config *> g_config{nullptr};

/** Keeps every config ever installed alive (and reachable, so leak
 * checkers stay quiet). Guarded by its own mutex; configure() is not
 * a hot path. */
void
retireConfig(const Config *config)
{
    static std::mutex mutex;
    // Leaked on purpose: retiring must stay valid during static
    // destruction (mirrors the obs registry's immortality).
    static auto *retired =
        new std::vector<std::unique_ptr<const Config>>;
    if (config == nullptr)
        return;
    const std::lock_guard<std::mutex> lock(mutex);
    retired->emplace_back(config);
}

std::atomic<std::uint64_t> g_hits[kMaxSites];
std::atomic<std::uint64_t> g_fires[kMaxSites];

void
resetCounters()
{
    for (std::size_t i = 0; i < kMaxSites; ++i) {
        g_hits[i].store(0, std::memory_order_relaxed);
        g_fires[i].store(0, std::memory_order_relaxed);
    }
}

bool
matches(const std::string &pattern, std::string_view site)
{
    if (pattern == "*")
        return true;
    if (!pattern.empty() && pattern.back() == '*') {
        const std::string_view prefix(pattern.data(),
                                      pattern.size() - 1);
        return site.size() >= prefix.size() &&
               site.substr(0, prefix.size()) == prefix;
    }
    return site == pattern;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Pure per-hit decision: (site, hit index, seed) -> fire?  */
bool
decides(const Rule &rule, std::string_view site, std::uint64_t hit,
        std::uint64_t seed)
{
    if (rule.percent >= 100)
        return true;
    if (rule.percent <= 0)
        return false;
    const std::uint64_t h = splitmix64(
        seed ^ support::fnv1a(site) ^ (hit * 0x2545f4914f6cdd1dull));
    return static_cast<int>(h % 100) <
           rule.percent;
}

/** Parse one "pattern[@pct][#max]" rule. */
bool
parseRule(std::string_view text, Rule &rule, std::string *error)
{
    std::string body(text);
    const auto fail = [&](const std::string &why) {
        if (error != nullptr)
            *error = "bad FITS_FAULTS rule '" + body + "': " + why;
        return false;
    };

    std::string pattern = body;
    const auto parseTail = [&](char marker, std::uint64_t &out,
                               std::uint64_t lo, std::uint64_t hi,
                               const char *what) {
        const auto pos = pattern.find(marker);
        if (pos == std::string::npos)
            return true;
        const std::string digits = pattern.substr(pos + 1);
        pattern.resize(pos);
        char *end = nullptr;
        const std::uint64_t v =
            std::strtoull(digits.c_str(), &end, 10);
        if (end == digits.c_str() || *end != '\0' || v < lo || v > hi)
            return fail(std::string("bad ") + what);
        out = v;
        return true;
    };

    // '#' may follow '@'; strip it first so '@' digits stay clean.
    std::uint64_t maxFires = 0, percent = 100;
    if (!parseTail('#', maxFires, 1, ~0ull, "fire limit"))
        return false;
    if (!parseTail('@', percent, 0, 100, "percentage"))
        return false;

    if (pattern.empty())
        return fail("empty site pattern");
    const bool glob =
        pattern == "*" ||
        (pattern.back() == '*' && pattern.find('*') ==
                                      pattern.size() - 1);
    if (!glob) {
        if (pattern.find('*') != std::string::npos)
            return fail("'*' is only valid as a trailing glob");
        if (siteByName(pattern) == nullptr)
            return fail("unknown fault site (see `fits faults`)");
    }

    rule.pattern = std::move(pattern);
    rule.percent = static_cast<int>(percent);
    rule.maxFires = maxFires;
    return true;
}

/** Parse FITS_FAULTS once at load time (mirrors obs::EnvInit). */
struct EnvInit
{
    EnvInit()
    {
        const char *env = std::getenv("FITS_FAULTS");
        if (env == nullptr || *env == '\0')
            return;
        std::string error;
        if (!configure(env, &error)) {
            std::fprintf(stderr,
                         "fits: ignoring FITS_FAULTS: %s\n",
                         error.c_str());
        }
    }
};

const EnvInit g_envInit;

} // namespace

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

const std::vector<SiteInfo> &
knownSites()
{
    return catalog();
}

const SiteInfo *
siteByName(std::string_view name)
{
    const auto &index = siteIndex();
    const auto it = index.find(name);
    return it == index.end() ? nullptr : &catalog()[it->second];
}

bool
configure(std::string_view spec, std::string *error)
{
    resetCounters();
    if (spec.empty()) {
        g_enabled.store(false, std::memory_order_relaxed);
        return true;
    }

    auto config = std::make_unique<Config>();

    // The seed is everything after the last ':' (site names never
    // contain one).
    std::string rulesText(spec);
    const auto colon = rulesText.rfind(':');
    if (colon != std::string::npos) {
        const std::string digits = rulesText.substr(colon + 1);
        char *end = nullptr;
        const std::uint64_t seed =
            std::strtoull(digits.c_str(), &end, 10);
        if (digits.empty() || end == digits.c_str() ||
            *end != '\0') {
            if (error != nullptr)
                *error = "bad seed '" + digits + "'";
            g_enabled.store(false, std::memory_order_relaxed);
            return false;
        }
        config->seed = seed;
        rulesText.resize(colon);
    }

    for (const auto &part : support::split(rulesText, ',')) {
        Rule rule;
        if (!parseRule(part, rule, error)) {
            g_enabled.store(false, std::memory_order_relaxed);
            return false;
        }
        config->rules.push_back(std::move(rule));
    }
    if (config->rules.empty()) {
        if (error != nullptr)
            *error = "no rules in spec";
        g_enabled.store(false, std::memory_order_relaxed);
        return false;
    }

    retireConfig(g_config.exchange(config.release(),
                                   std::memory_order_acq_rel));
    g_enabled.store(true, std::memory_order_relaxed);
    return true;
}

void
reset()
{
    g_enabled.store(false, std::memory_order_relaxed);
    resetCounters();
}

bool
shouldInject(std::string_view site)
{
    if (!enabled())
        return false;
    const auto &index = siteIndex();
    const auto it = index.find(site);
    assert(it != index.end() && "unregistered fault site");
    if (it == index.end())
        return false;
    const std::size_t idx = it->second;

    const Config *config =
        g_config.load(std::memory_order_acquire);
    const std::uint64_t hit =
        g_hits[idx].fetch_add(1, std::memory_order_relaxed);
    if (config == nullptr)
        return false;

    for (const auto &rule : config->rules) {
        if (!matches(rule.pattern, site))
            continue;
        if (!decides(rule, site, hit, config->seed))
            return false; // first matching rule decides
        const std::uint64_t prev =
            g_fires[idx].fetch_add(1, std::memory_order_relaxed);
        if (rule.maxFires != 0 && prev >= rule.maxFires) {
            // Fire limit reached: undo and pass the site through.
            g_fires[idx].fetch_sub(1, std::memory_order_relaxed);
            return false;
        }
        return true;
    }
    return false;
}

bool
rulesConfinedTo(std::string_view prefix)
{
    if (!enabled())
        return true;
    const Config *config = g_config.load(std::memory_order_acquire);
    if (config == nullptr)
        return true;
    for (const auto &rule : config->rules) {
        std::string_view pattern = rule.pattern;
        if (pattern == "*")
            return false;
        if (!pattern.empty() && pattern.back() == '*')
            pattern.remove_suffix(1);
        if (pattern.size() < prefix.size() ||
            pattern.substr(0, prefix.size()) != prefix) {
            return false;
        }
    }
    return true;
}

std::uint64_t
hitCount(std::string_view site)
{
    const SiteInfo *info = siteByName(site);
    if (info == nullptr)
        return 0;
    return g_hits[static_cast<std::size_t>(info - catalog().data())]
        .load(std::memory_order_relaxed);
}

std::uint64_t
fireCount(std::string_view site)
{
    const SiteInfo *info = siteByName(site);
    if (info == nullptr)
        return 0;
    return g_fires[static_cast<std::size_t>(info - catalog().data())]
        .load(std::memory_order_relaxed);
}

std::uint64_t
totalFires()
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kMaxSites; ++i)
        total += g_fires[i].load(std::memory_order_relaxed);
    return total;
}

support::Status
injectedStatus(std::string_view site)
{
    const SiteInfo *info = siteByName(site);
    const Stage stage =
        info == nullptr ? Stage::None : info->stage;
    return support::Status::error(
        stage, support::ErrorCode::FaultInjected,
        "injected fault at " + std::string(site));
}

} // namespace fits::chaos
