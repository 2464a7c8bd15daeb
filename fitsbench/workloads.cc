#include "workloads.hh"

#include <array>
#include <stdexcept>

#include "support/rng.hh"
#include "support/strings.hh"
#include "synth/httpd_gen.hh"

namespace fitsbench {

namespace {

using fits::synth::SampleSpec;
using fits::synth::VendorProfile;
using FM = SampleSpec::FailureMode;

/**
 * The paper-shaped 59-sample corpus. Seed 0 is exactly
 * synth::standardDataset(), the corpus behind the committed tables.
 * Any other seed re-draws each sample's generator seed and keeps the
 * vendor, failure-mode and per-sample profile mix, and also each
 * network binary's function count at seed 0: clustering cost grows
 * with the square of that count, so without the pin the seed would
 * decide the input size.
 */
std::vector<SampleSpec>
corpusSpecs(std::uint64_t seed)
{
    std::vector<SampleSpec> specs = fits::synth::standardDataset();
    if (seed != 0) {
        fits::support::Rng rng(seed);
        for (auto &spec : specs) {
            if (spec.failure != FM::NoNetworkBinary) {
                const int size = static_cast<int>(
                    fits::synth::generateHttpd(spec).image.program.size());
                spec.profile.minCustomFns = size;
                spec.profile.maxCustomFns = size;
            }
            spec.seed = rng.next();
        }
    }
    return specs;
}

/** A sample of `profile` with a custom-function count in [lo, hi]. */
SampleSpec
drawSample(VendorProfile profile, int lo, int hi, FM failure,
           fits::support::Rng &rng)
{
    SampleSpec spec;
    profile.minCustomFns = lo;
    profile.maxCustomFns = hi;
    if (failure == FM::OpaqueEncoding)
        profile.encoding = fits::fw::Encoding::Opaque;
    if (profile.vendor == "NETGEAR" && rng.chance(0.3))
        profile.arch = fits::bin::Arch::Aarch64;
    spec.product = rng.pick(profile.series);
    spec.version = fits::support::format(
        "V%d.%d.%d", static_cast<int>(rng.uniformInt(1, 2)),
        static_cast<int>(rng.uniformInt(0, 9)),
        static_cast<int>(rng.uniformInt(2, 60)));
    spec.name = spec.product + "-" + spec.version;
    spec.seed = rng.next();
    spec.failure = failure;
    spec.profile = std::move(profile);
    return spec;
}

/**
 * Many small images in the standard corpus's vendor proportions
 * (NETGEAR 19, D-Link 12, TP-Link 18, Tenda 9, Cisco 1 of 59), with
 * custom-function counts spread evenly over 100-300 and no planted
 * failures. The seed shuffles which vendor gets which size and draws
 * every sample's generator seed; the mix and sizes stay fixed.
 */
std::vector<SampleSpec>
fleetSpecs(std::uint64_t seed)
{
    const std::array<VendorProfile, 5> vendors = {
        fits::synth::netgearProfile(), fits::synth::dlinkProfile(),
        fits::synth::tplinkProfile(), fits::synth::tendaProfile(),
        fits::synth::ciscoProfile()};
    const std::array<int, 5> shares = {64, 41, 61, 31, 3}; // 200 x w/59
    constexpr int kSamples = 200;
    std::vector<std::size_t> vendorOf;
    for (std::size_t v = 0; v < vendors.size(); ++v)
        vendorOf.insert(vendorOf.end(), shares[v], v);
    fits::support::Rng rng(seed ^ 0x5f1ee7f1ee7f1ee7ULL);
    rng.shuffle(vendorOf);
    std::vector<SampleSpec> specs;
    for (int i = 0; i < kSamples; ++i) {
        const int size = 100 + (200 * i) / (kSamples - 1);
        specs.push_back(
            drawSample(vendors[vendorOf[i]], size, size, FM::None, rng));
    }
    return specs;
}

/** Six small images, one per planted outcome the checks distinguish. */
std::vector<SampleSpec>
smokeSpecs(std::uint64_t seed)
{
    fits::support::Rng rng(seed ^ 0x5e0cebe5c0ffee00ULL);
    return {
        drawSample(fits::synth::netgearProfile(), 60, 90, FM::None, rng),
        drawSample(fits::synth::dlinkProfile(), 60, 90,
                   FM::StructOffset, rng),
        drawSample(fits::synth::tplinkProfile(), 60, 90,
                   FM::OpaqueEncoding, rng),
        drawSample(fits::synth::tplinkProfile(), 60, 90,
                   FM::CorruptImage, rng),
        drawSample(fits::synth::tendaProfile(), 60, 90,
                   FM::NoNetworkBinary, rng),
        drawSample(fits::synth::ciscoProfile(), 60, 90, FM::None, rng),
    };
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "corpus-cold") {
        // Two workers, not four: on a 4-vCPU virtual machine shared
        // with other tenants, passes that kept every vCPU busy swung
        // by up to 30% between runs; two workers swung about 10%.
        w.jobs = 2;
        w.taint = true;
        w.specs = corpusSpecs(seed);
    } else if (name == "corpus-warm") {
        w.warm = true;
        w.specs = corpusSpecs(seed);
    } else if (name == "small-fleet") {
        w.taint = true;
        w.specs = fleetSpecs(seed);
    } else if (name == "smoke") {
        w.jobs = 4;
        w.taint = true;
        w.specs = smokeSpecs(seed);
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return w;
}

} // namespace fitsbench
