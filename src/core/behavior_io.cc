#include "behavior_io.hh"

#include <bit>

#include "cache/fingerprint.hh"

namespace fits::core {

namespace {

/** Bumps whenever the layout below (or the meaning of any serialized
 * field) changes; mixed into the config fingerprint so stale disk
 * entries key-miss instead of mis-parsing. */
constexpr std::uint64_t kBundleFormatVersion = 1;

constexpr char kBundleMagic[4] = {'F', 'B', 'B', '1'};

// ---- encoding ------------------------------------------------------

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

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

void
putF64(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

void
putStr(std::string &out, std::string_view s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

void
putVec(std::string &out, const ml::Vec &v)
{
    putU32(out, static_cast<std::uint32_t>(v.size()));
    for (double x : v)
        putF64(out, x);
}

void
putBfv(std::string &out, const Bfv &bfv)
{
    // Table-1 declaration order; any reordering is a format bump.
    putF64(out, bfv.numBlocks);
    putU8(out, bfv.hasLoop ? 1 : 0);
    putF64(out, bfv.numCallers);
    putF64(out, bfv.numParams);
    putF64(out, bfv.numAnchorCalls);
    putF64(out, bfv.numLibCalls);
    putU8(out, bfv.paramsControlLoop ? 1 : 0);
    putU8(out, bfv.paramsControlBranch ? 1 : 0);
    putU8(out, bfv.paramsToAnchor ? 1 : 0);
    putU8(out, bfv.argsHaveStrings ? 1 : 0);
    putF64(out, bfv.numDistinctStrings);
}

// ---- decoding ------------------------------------------------------

struct Cursor
{
    std::string_view data;
    std::size_t pos = 0;
    bool bad = false;

    std::uint8_t
    u8()
    {
        if (bad || data.size() - pos < 1) {
            bad = true;
            return 0;
        }
        return static_cast<unsigned char>(data[pos++]);
    }

    std::uint32_t
    u32()
    {
        if (bad || data.size() - pos < 4) {
            bad = true;
            return 0;
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data[pos + i]))
                 << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (bad || data.size() - pos < 8) {
            bad = true;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (bad || data.size() - pos < n) {
            bad = true;
            return {};
        }
        std::string s(data.substr(pos, n));
        pos += n;
        return s;
    }

    ml::Vec
    vec()
    {
        const std::uint32_t n = u32();
        // 8 bytes per element: bound before reserving so a corrupt
        // count cannot trigger a huge allocation.
        if (bad || (data.size() - pos) / 8 < n) {
            bad = true;
            return {};
        }
        ml::Vec v;
        v.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            v.push_back(f64());
        return v;
    }

    Bfv
    bfv()
    {
        Bfv b;
        b.numBlocks = f64();
        b.hasLoop = u8() != 0;
        b.numCallers = f64();
        b.numParams = f64();
        b.numAnchorCalls = f64();
        b.numLibCalls = f64();
        b.paramsControlLoop = u8() != 0;
        b.paramsControlBranch = u8() != 0;
        b.paramsToAnchor = u8() != 0;
        b.argsHaveStrings = u8() != 0;
        b.numDistinctStrings = f64();
        return b;
    }
};

} // namespace

std::string
encodeBehaviorBundle(const BehaviorBundle &bundle)
{
    std::string out;
    out.append(kBundleMagic, 4);
    putU32(out, static_cast<std::uint32_t>(kBundleFormatVersion));

    putStr(out, bundle.imageInfo.vendor);
    putStr(out, bundle.imageInfo.product);
    putStr(out, bundle.imageInfo.version);
    putU8(out, static_cast<std::uint8_t>(bundle.imageInfo.encoding));

    putStr(out, bundle.binaryName);
    putU64(out, bundle.numFunctions);
    putU64(out, bundle.binaryBytes);

    const BehaviorRepr &br = bundle.behavior;
    putU32(out, static_cast<std::uint32_t>(br.records.size()));
    for (const FunctionRecord &rec : br.records) {
        putU32(out, rec.id);
        putU64(out, rec.entry);
        putStr(out, rec.name);
        putU8(out, rec.isCustom ? 1 : 0);
        putU8(out, rec.isAnchor ? 1 : 0);
        putBfv(out, rec.bfv);
        putVec(out, rec.augmentedCfg);
        putVec(out, rec.attributedCfg);
    }
    putU32(out, static_cast<std::uint32_t>(br.customFns.size()));
    for (analysis::FnId id : br.customFns)
        putU32(out, id);
    putU32(out, static_cast<std::uint32_t>(br.anchorFns.size()));
    for (analysis::FnId id : br.anchorFns)
        putU32(out, id);
    return out;
}

std::optional<BehaviorBundle>
decodeBehaviorBundle(std::string_view payload)
{
    if (payload.size() < 8 ||
        payload.compare(0, 4, kBundleMagic, 4) != 0)
        return std::nullopt;

    Cursor c{payload, 4};
    if (c.u32() != kBundleFormatVersion)
        return std::nullopt;

    BehaviorBundle bundle;
    bundle.imageInfo.vendor = c.str();
    bundle.imageInfo.product = c.str();
    bundle.imageInfo.version = c.str();
    const std::uint8_t encoding = c.u8();
    if (encoding > static_cast<std::uint8_t>(fw::Encoding::Opaque))
        return std::nullopt;
    bundle.imageInfo.encoding = static_cast<fw::Encoding>(encoding);

    bundle.binaryName = c.str();
    bundle.numFunctions = c.u64();
    bundle.binaryBytes = c.u64();

    const std::uint32_t numRecords = c.u32();
    if (c.bad || (payload.size() - c.pos) / 16 < numRecords)
        return std::nullopt; // 16 = floor of a record's wire size
    bundle.behavior.records.reserve(numRecords);
    for (std::uint32_t i = 0; i < numRecords && !c.bad; ++i) {
        FunctionRecord rec;
        rec.id = c.u32();
        rec.entry = c.u64();
        rec.name = c.str();
        rec.isCustom = c.u8() != 0;
        rec.isAnchor = c.u8() != 0;
        rec.bfv = c.bfv();
        rec.augmentedCfg = c.vec();
        rec.attributedCfg = c.vec();
        bundle.behavior.records.push_back(std::move(rec));
    }

    // Inference indexes `records` by these ids, so an id past the
    // table is a corrupt entry even under a valid checksum.
    const auto readIds = [&](std::vector<analysis::FnId> &ids) {
        const std::uint32_t n = c.u32();
        if (c.bad || (payload.size() - c.pos) / 4 < n)
            return false;
        ids.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t id = c.u32();
            if (id >= bundle.behavior.records.size())
                return false;
            ids.push_back(id);
        }
        return true;
    };
    if (!readIds(bundle.behavior.customFns) ||
        !readIds(bundle.behavior.anchorFns))
        return std::nullopt;

    if (c.bad || c.pos != payload.size())
        return std::nullopt;
    return bundle;
}

std::uint64_t
behaviorConfigFingerprint(const BehaviorAnalyzer::Config &config)
{
    return cache::Fingerprint()
        .mix(kBundleFormatVersion)
        .mix(static_cast<std::uint64_t>(config.ucse.maxSteps))
        .mix(static_cast<std::uint64_t>(config.ucse.maxVisitsPerBlock))
        .mix(static_cast<std::uint64_t>(config.maxStringsPerArg))
        .value();
}

} // namespace fits::core
