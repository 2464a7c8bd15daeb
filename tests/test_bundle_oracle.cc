/** @file The behavior-bundle codec against the byte-wise reference in
 * bundle_oracle.hh: on every standard-corpus sample's bundle both
 * encoders produce the same bytes and both decoders the same bundle,
 * bit for bit; on seeded truncations and byte flips of those payloads
 * both decoders accept or reject alike, and agree on what they accept. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bundle_oracle.hh"
#include "cache/cache.hh"
#include "core/behavior_io.hh"
#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "support/rng.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

void
expectSameVec(const ml::Vec &a, const ml::Vec &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                  std::bit_cast<std::uint64_t>(b[i]))
            << "element " << i;
    }
}

/** Field-by-field equality with doubles compared by bit pattern. */
void
expectSameBundle(const core::BehaviorBundle &a,
                 const core::BehaviorBundle &b)
{
    EXPECT_EQ(a.imageInfo.vendor, b.imageInfo.vendor);
    EXPECT_EQ(a.imageInfo.product, b.imageInfo.product);
    EXPECT_EQ(a.imageInfo.version, b.imageInfo.version);
    EXPECT_EQ(a.imageInfo.encoding, b.imageInfo.encoding);
    EXPECT_EQ(a.binaryName, b.binaryName);
    EXPECT_EQ(a.numFunctions, b.numFunctions);
    EXPECT_EQ(a.binaryBytes, b.binaryBytes);
    EXPECT_EQ(a.behavior.customFns, b.behavior.customFns);
    EXPECT_EQ(a.behavior.anchorFns, b.behavior.anchorFns);
    ASSERT_EQ(a.behavior.records.size(), b.behavior.records.size());
    for (std::size_t i = 0; i < a.behavior.records.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "record " << i);
        const core::FunctionRecord &x = a.behavior.records[i];
        const core::FunctionRecord &y = b.behavior.records[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.entry, y.entry);
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.isCustom, y.isCustom);
        EXPECT_EQ(x.isAnchor, y.isAnchor);
        expectSameVec(x.bfv.toVector(), y.bfv.toVector());
        expectSameVec(x.augmentedCfg, y.augmentedCfg);
        expectSameVec(x.attributedCfg, y.attributedCfg);
    }
}

/** The behavior bundle of every analyzable standard-corpus sample,
 * computed once for the whole test binary. */
const std::vector<core::BehaviorBundle> &
corpusBundles()
{
    static const std::vector<core::BehaviorBundle> bundles = [] {
        const auto corpus = synth::generateStandardCorpus();
        eval::CorpusRunner::Config config;
        config.jobs = 4;
        config.cache = false;
        const core::FitsPipeline pipeline(config.pipeline);
        const auto results =
            eval::CorpusRunner(config)
                .map<std::optional<core::BehaviorBundle>>(
                    corpus.size(),
                    [&](std::size_t i) {
                        const auto result = pipeline.analyze(corpus[i].bytes);
                        std::optional<core::BehaviorBundle> bundle;
                        if (result.ok) {
                            bundle.emplace();
                            bundle->imageInfo = result.imageInfo;
                            bundle->binaryName = result.binaryName;
                            bundle->numFunctions = result.numFunctions;
                            bundle->binaryBytes = result.binaryBytes;
                            bundle->behavior = result.behavior;
                        }
                        return bundle;
                    },
                    [](std::size_t, const std::string &) {
                        return std::optional<core::BehaviorBundle>();
                    });
        cache::clearMemory();
        std::vector<core::BehaviorBundle> out;
        for (const auto &bundle : results) {
            if (bundle.has_value())
                out.push_back(*bundle);
        }
        return out;
    }();
    return bundles;
}

TEST(BundleOracle, BitIdenticalOnEveryStandardCorpusBundle)
{
    const auto &bundles = corpusBundles();
    ASSERT_GE(bundles.size(), 50u);
    for (std::size_t i = 0; i < bundles.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "sample " << i);
        const std::string payload = core::encodeBehaviorBundle(bundles[i]);
        ASSERT_EQ(payload, oracle::referenceEncodeBehaviorBundle(bundles[i]));
        const auto decoded = core::decodeBehaviorBundle(payload);
        const auto reference = oracle::referenceDecodeBehaviorBundle(payload);
        ASSERT_TRUE(decoded.has_value());
        ASSERT_TRUE(reference.has_value());
        expectSameBundle(*decoded, *reference);
        expectSameBundle(*decoded, bundles[i]);
    }
}

TEST(BundleOracle, SameVerdictOnSeededTruncationsAndFlips)
{
    const auto &bundles = corpusBundles();
    ASSERT_FALSE(bundles.empty());
    support::Rng rng(0xb0d1e);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    const auto check = [&](const std::string &mutant) {
        const auto decoded = core::decodeBehaviorBundle(mutant);
        const auto reference = oracle::referenceDecodeBehaviorBundle(mutant);
        ASSERT_EQ(decoded.has_value(), reference.has_value());
        if (decoded.has_value()) {
            ++accepted;
            expectSameBundle(*decoded, *reference);
        } else {
            ++rejected;
        }
    };
    for (std::size_t i = 0; i < bundles.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "sample " << i);
        const std::string payload = core::encodeBehaviorBundle(bundles[i]);
        for (int t = 0; t < 4; ++t)
            check(payload.substr(0, rng.index(payload.size())));
        const std::size_t window =
            std::min<std::size_t>(payload.size(), 160);
        for (int f = 0; f < 9; ++f) {
            std::size_t at = 0;
            switch (f % 3) {
            case 0: // anywhere: mostly vector data, which both accept
                at = rng.index(payload.size());
                break;
            case 1: // the front: lengths, counts, the encoding tag
                at = rng.index(window);
                break;
            default: // the back: custom and anchor ids
                at = payload.size() - 1 - rng.index(window);
                break;
            }
            std::string mutant = payload;
            mutant[at] ^= static_cast<char>(1 + rng.index(255));
            check(mutant);
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace fits
