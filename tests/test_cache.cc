/** @file Determinism and degradation tests for the fits::cache
 * analysis-reuse subsystem: behavior-bundle serialization round-trips
 * bit-for-bit and rejects hostile contents, rankings are identical
 * with/without the cache and across cold/warm runs on both tiers,
 * serial and parallel corpus runs agree, only shared libraries stay
 * resident, the admission cap stores nothing past it, corrupt or stale
 * disk entries degrade to misses, and injected cache faults degrade
 * gracefully. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "binary/fbin.hh"
#include "cache/cache.hh"
#include "chaos/chaos.hh"
#include "core/behavior_io.hh"
#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/harness.hh"
#include "firmware/fwimg.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "synth/libc_gen.hh"

namespace fits {
namespace {

namespace fs = std::filesystem;

/** Every test starts from a cold cache with default options and a
 * private disk directory, and restores that state on the way out so
 * no cache contents leak between tests in this process. */
class CacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chaos::reset();
        cache::configure(cache::Options{});
        cache::clearMemory();
        cache::resetStats();
        dir_ = (fs::temp_directory_path() /
                ("fits_cache_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        chaos::reset();
        cache::configure(cache::Options{});
        cache::clearMemory();
        cache::resetStats();
        fs::remove_all(dir_);
    }

    /** Enable the disk tier rooted at this test's private directory. */
    void
    enableDisk()
    {
        cache::Options options = cache::options();
        options.disk = true;
        options.dir = dir_;
        cache::configure(options);
    }

    std::string dir_;
};

/** A small deterministic corpus; every sample ships the same libc, so
 * cross-sample library reuse actually occurs. */
std::vector<synth::GeneratedFirmware>
smallCorpus(std::size_t n)
{
    std::vector<synth::GeneratedFirmware> corpus;
    for (std::size_t i = 0; i < n; ++i) {
        synth::SampleSpec spec;
        spec.profile = synth::tendaProfile();
        spec.profile.minCustomFns = 40;
        spec.profile.maxCustomFns = 60;
        spec.product = "AC" + std::to_string(6 + i);
        spec.version = "V1";
        spec.name = "cache-sample-" + std::to_string(i);
        spec.seed = 0xcac4e + i;
        corpus.push_back(synth::generateFirmware(spec));
    }
    return corpus;
}

/** Exact bit-level score comparison: == would also pass for -0.0 vs
 * +0.0, which the bit-identity guarantee forbids. */
std::uint64_t
scoreBits(double score)
{
    return std::bit_cast<std::uint64_t>(score);
}

/** The inference halves of two corpus runs agree bit for bit. */
void
expectIdenticalOutcomes(
    const std::vector<eval::CorpusRunner::FullOutcome> &a,
    const std::vector<eval::CorpusRunner::FullOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i].inference;
        const auto &y = b[i].inference;
        ASSERT_EQ(x.ok, y.ok) << "sample " << i;
        EXPECT_EQ(x.firstItsRank, y.firstItsRank);
        ASSERT_EQ(x.ranking.size(), y.ranking.size());
        for (std::size_t r = 0; r < x.ranking.size(); ++r) {
            EXPECT_EQ(x.ranking[r].id, y.ranking[r].id);
            EXPECT_EQ(x.ranking[r].entry, y.ranking[r].entry);
            EXPECT_EQ(x.ranking[r].name, y.ranking[r].name);
            EXPECT_EQ(scoreBits(x.ranking[r].score),
                      scoreBits(y.ranking[r].score))
                << "sample " << i << " rank " << r;
        }
    }
}

core::PipelineConfig
cachingPipelineConfig()
{
    core::PipelineConfig config;
    config.behaviorCache = true;
    return config;
}

/** The FBIN bytes of the sample's lib/libc.so. */
std::vector<std::uint8_t>
libcBytes(const synth::GeneratedFirmware &sample)
{
    auto unpacked = fw::unpackFirmware(sample.bytes);
    const fw::FileEntry *libc =
        unpacked ? unpacked.value().filesystem.findByBasename("libc.so")
                 : nullptr;
    return libc != nullptr ? libc->bytes : std::vector<std::uint8_t>{};
}

/** Per-function analysis results that do not depend on where the image
 * lives in memory, for comparing two computations of one library. */
std::vector<std::string>
summarize(const std::vector<analysis::FunctionAnalysis> &fns)
{
    std::vector<std::string> out;
    for (const auto &fa : fns) {
        std::string masks;
        for (std::size_t b = 0; b < fa.fn->blocks.size(); ++b) {
            const auto row = fa.flow.depsOf(b);
            masks.append(row.begin(), row.end());
            masks.push_back('|');
        }
        std::string line = support::format(
            "%llx params=%x/%d loops=%x steps=%zu calls=%zu jumps=%zu "
            "deps=%016llx blocks=",
            static_cast<unsigned long long>(fa.fn->entry),
            fa.params.usedMask, fa.params.count, fa.loopDepMask,
            fa.ucse.steps, fa.ucse.resolvedCalls.size(),
            fa.ucse.resolvedJumps.size(),
            static_cast<unsigned long long>(support::fnv1a(masks)));
        for (const bool reached : fa.ucse.reachedBlocks)
            line += reached ? '1' : '0';
        out.push_back(std::move(line));
    }
    return out;
}

void
expectIdenticalRankings(const core::InferenceResult &a,
                        const core::InferenceResult &b)
{
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t r = 0; r < a.ranking.size(); ++r) {
        EXPECT_EQ(a.ranking[r].id, b.ranking[r].id);
        EXPECT_EQ(a.ranking[r].entry, b.ranking[r].entry);
        EXPECT_EQ(a.ranking[r].name, b.ranking[r].name);
        EXPECT_EQ(scoreBits(a.ranking[r].score),
                  scoreBits(b.ranking[r].score))
            << "rank " << r;
    }
}

// ---- behavior-bundle serialization -------------------------------------

TEST_F(CacheTest, BundleRoundTripIsBitIdentical)
{
    const auto corpus = smallCorpus(1);
    const core::FitsPipeline pipeline{core::PipelineConfig{}};
    const auto result = pipeline.run(corpus[0].bytes);
    ASSERT_TRUE(result.ok);

    core::BehaviorBundle bundle;
    bundle.imageInfo = result.imageInfo;
    bundle.binaryName = result.binaryName;
    bundle.numFunctions = result.numFunctions;
    bundle.binaryBytes = result.binaryBytes;
    bundle.behavior = result.behavior;

    const std::string payload = core::encodeBehaviorBundle(bundle);
    const auto decoded = core::decodeBehaviorBundle(payload);
    ASSERT_TRUE(decoded.has_value());

    EXPECT_EQ(decoded->binaryName, bundle.binaryName);
    EXPECT_EQ(decoded->numFunctions, bundle.numFunctions);
    EXPECT_EQ(decoded->binaryBytes, bundle.binaryBytes);
    EXPECT_EQ(decoded->imageInfo.vendor, bundle.imageInfo.vendor);
    ASSERT_EQ(decoded->behavior.records.size(),
              bundle.behavior.records.size());
    EXPECT_EQ(decoded->behavior.customFns, bundle.behavior.customFns);
    EXPECT_EQ(decoded->behavior.anchorFns, bundle.behavior.anchorFns);
    for (std::size_t i = 0; i < bundle.behavior.records.size(); ++i) {
        const auto &in = bundle.behavior.records[i];
        const auto &out = decoded->behavior.records[i];
        EXPECT_EQ(out.name, in.name);
        EXPECT_EQ(out.entry, in.entry);
        const auto inVec = in.bfv.toVector();
        const auto outVec = out.bfv.toVector();
        ASSERT_EQ(outVec.size(), inVec.size());
        for (std::size_t d = 0; d < inVec.size(); ++d)
            EXPECT_EQ(scoreBits(outVec[d]), scoreBits(inVec[d]));
    }

    // Re-encoding the decoded bundle must reproduce the exact bytes:
    // the payload is a pure function of the product.
    EXPECT_EQ(core::encodeBehaviorBundle(*decoded), payload);
}

TEST_F(CacheTest, DecodeRejectsCorruptPayloads)
{
    const auto corpus = smallCorpus(1);
    const core::FitsPipeline pipeline{core::PipelineConfig{}};
    const auto result = pipeline.run(corpus[0].bytes);
    ASSERT_TRUE(result.ok);
    core::BehaviorBundle bundle;
    bundle.behavior = result.behavior;
    const std::string payload = core::encodeBehaviorBundle(bundle);

    // Truncation anywhere, a wrong magic, a future version, and
    // trailing garbage must all be rejected — never misparsed.
    EXPECT_FALSE(core::decodeBehaviorBundle("").has_value());
    for (const std::size_t cut :
         {std::size_t{3}, std::size_t{7}, payload.size() / 2,
          payload.size() - 1}) {
        EXPECT_FALSE(
            core::decodeBehaviorBundle(payload.substr(0, cut))
                .has_value())
            << "cut at " << cut;
    }
    std::string badMagic = payload;
    badMagic[0] = 'X';
    EXPECT_FALSE(core::decodeBehaviorBundle(badMagic).has_value());
    std::string badVersion = payload;
    badVersion[4] = static_cast<char>(0x7f);
    EXPECT_FALSE(core::decodeBehaviorBundle(badVersion).has_value());
    EXPECT_FALSE(
        core::decodeBehaviorBundle(payload + '\0').has_value());
}

TEST_F(CacheTest, HostileBundleContentsDegradeToMiss)
{
    // A well-formed, checksummed disk entry under a real sample's key
    // whose contents lie: ids past the record table (inference would
    // index `records` with them) or an unknown encoding byte.
    enableDisk();
    const auto corpus = smallCorpus(1);
    const core::PipelineConfig config = cachingPipelineConfig();
    const auto reference =
        core::FitsPipeline{core::PipelineConfig{}}.run(corpus[0].bytes);
    ASSERT_TRUE(reference.ok);

    core::BehaviorBundle bundle;
    bundle.imageInfo = reference.imageInfo;
    bundle.binaryName = reference.binaryName;
    bundle.numFunctions = reference.numFunctions;
    bundle.binaryBytes = reference.binaryBytes;
    bundle.behavior = reference.behavior;
    const auto records =
        static_cast<analysis::FnId>(bundle.behavior.records.size());
    ASSERT_TRUE(core::decodeBehaviorBundle(
                    core::encodeBehaviorBundle(bundle))
                    .has_value());

    std::vector<core::BehaviorBundle> hostile(3, bundle);
    hostile[0].behavior.customFns.push_back(records);
    hostile[1].behavior.anchorFns.front() = records + 1000;
    hostile[2].imageInfo.encoding = static_cast<fw::Encoding>(
        static_cast<std::uint8_t>(fw::Encoding::Opaque) + 1);

    const std::uint64_t key1 =
        support::fnv1a(corpus[0].bytes.data(), corpus[0].bytes.size());
    const std::uint64_t key2 =
        core::behaviorConfigFingerprint(config.behavior);
    for (std::size_t i = 0; i < hostile.size(); ++i) {
        const std::string payload =
            core::encodeBehaviorBundle(hostile[i]);
        EXPECT_FALSE(core::decodeBehaviorBundle(payload).has_value())
            << "variant " << i;

        cache::storeBlob("behavior", key1, key2, payload);
        cache::resetStats();
        const auto result =
            core::FitsPipeline{config}.run(corpus[0].bytes);
        // The entry was read, rejected, and recomputed from scratch.
        EXPECT_EQ(cache::stats().diskHits, 1u) << "variant " << i;
        ASSERT_TRUE(result.ok) << "variant " << i;
        expectIdenticalRankings(result.inference, reference.inference);
    }
}

// ---- library tier ------------------------------------------------------

TEST_F(CacheTest, LoadLibrarySharesOneInstancePerContent)
{
    const auto corpus = smallCorpus(2);
    const auto bytes = libcBytes(corpus[0]);
    ASSERT_FALSE(bytes.empty());
    ASSERT_EQ(libcBytes(corpus[1]), bytes);

    const auto first = cache::loadLibrary(bytes);
    ASSERT_TRUE(first);
    const auto second = cache::loadLibrary(libcBytes(corpus[1]));
    ASSERT_TRUE(second);
    EXPECT_EQ(first.value().get(), second.value().get());
    EXPECT_EQ(cache::stats().misses, 1u);
    EXPECT_EQ(cache::stats().hits, 1u);

    // Its analyses are shared the same way, per config fingerprint.
    const analysis::UcseConfig config;
    const auto fns = cache::functionAnalyses(first.value(), config);
    EXPECT_EQ(cache::functionAnalyses(second.value(), config), fns);
    ASSERT_EQ(fns->size(), first.value()->program.size());
    EXPECT_EQ(fns->front().image, first.value().get());

    // Bytes that do not lift are never cached.
    const std::vector<std::uint8_t> junk(64, 0xab);
    EXPECT_FALSE(cache::loadLibrary(junk));
    EXPECT_FALSE(cache::loadLibrary(junk));
}

TEST_F(CacheTest, ConcurrentMissesOnOneLibraryCountOneMiss)
{
    // Four threads released together miss on one library: each lifts
    // and analyzes its own copy, but only the request whose entry lands
    // counts a miss and the others count hits, so the summary line is
    // the same in every run.
    const auto bytes = libcBytes(smallCorpus(1)[0]);
    ASSERT_FALSE(bytes.empty());
    const analysis::UcseConfig config;
    constexpr std::size_t kThreads = 4, kRounds = 20;
    for (std::size_t round = 0; round < kRounds; ++round) {
        cache::clearMemory();
        cache::resetStats();
        std::latch start(kThreads);
        std::vector<const bin::BinaryImage *> images(kThreads);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                const auto image = cache::loadLibrary(bytes);
                if (!image)
                    return;
                images[t] = image.value().get();
                (void)cache::functionAnalyses(image.value(), config);
            });
        }
        for (auto &thread : threads)
            thread.join();
        for (const auto *image : images)
            EXPECT_EQ(image, images.front()) << "round " << round;
        // One library and one analyses vector, each missed once.
        EXPECT_EQ(cache::stats().misses, 2u) << "round " << round;
        EXPECT_EQ(cache::stats().hits, 2 * (kThreads - 1))
            << "round " << round;
    }
}

TEST_F(CacheTest, OnlySharedLibrariesStayResident)
{
    // Main binaries are unique per sample, so four samples leave
    // exactly what one does: one libc with its analyses.
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    config.pipeline = cachingPipelineConfig();
    const eval::CorpusRunner runner(config);
    (void)runner.run(smallCorpus(1), true);
    const std::uint64_t oneSample = cache::stats().bytes;
    ASSERT_GT(oneSample, 0u);

    cache::clearMemory();
    const auto corpus = smallCorpus(4);
    const auto cached = runner.run(corpus, true);
    EXPECT_EQ(cache::stats().bytes, oneSample);

    cache::clearMemory();
    const auto libc = cache::loadLibrary(libcBytes(corpus[0]));
    ASSERT_TRUE(libc);
    (void)cache::functionAnalyses(libc.value(),
                                  core::PipelineConfig{}.behavior.ucse);
    EXPECT_EQ(cache::stats().bytes, oneSample);

    cache::Options off;
    off.memory = false;
    off.disk = false;
    cache::configure(off);
    eval::CorpusRunner::Config rawConfig;
    rawConfig.jobs = 1;
    rawConfig.cache = false;
    const auto raw = eval::CorpusRunner(rawConfig).run(corpus, true);
    ASSERT_EQ(cached.size(), raw.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached[i].inference.firstItsRank,
                  raw[i].inference.firstItsRank);
        EXPECT_EQ(cached[i].taint.sta.alerts, raw[i].taint.sta.alerts);
        EXPECT_EQ(cached[i].taint.karonte.alerts,
                  raw[i].taint.karonte.alerts);
    }
}

TEST_F(CacheTest, AdmissionCapComputesButDoesNotStore)
{
    bin::BinaryImage libc = synth::generateLibc();
    const auto bytesA = bin::writeBinary(libc);
    libc.name = "libc-variant.so";
    const auto bytesB = bin::writeBinary(libc);
    ASSERT_NE(bytesA, bytesB);
    const analysis::UcseConfig config;

    // Footprint of one resident library with its analyses.
    {
        const auto a = cache::loadLibrary(bytesA);
        ASSERT_TRUE(a);
        (void)cache::functionAnalyses(a.value(), config);
    }
    const std::uint64_t oneLibrary = cache::stats().bytes;
    ASSERT_GT(oneLibrary, 0u);
    cache::clearMemory();

    // A cap that admits exactly that much: the second library is
    // lifted and analyzed on every call but never becomes resident.
    cache::Options options = cache::options();
    options.maxBytes = oneLibrary;
    cache::configure(options);
    const auto a = cache::loadLibrary(bytesA);
    ASSERT_TRUE(a);
    const auto aFns = cache::functionAnalyses(a.value(), config);
    EXPECT_EQ(cache::stats().bytes, oneLibrary);

    const auto b1 = cache::loadLibrary(bytesB);
    const auto b2 = cache::loadLibrary(bytesB);
    ASSERT_TRUE(b1);
    ASSERT_TRUE(b2);
    EXPECT_NE(b1.value().get(), b2.value().get());
    const auto bFns = cache::functionAnalyses(b1.value(), config);
    EXPECT_NE(cache::functionAnalyses(b1.value(), config), bFns);
    EXPECT_EQ(cache::stats().bytes, oneLibrary);
    EXPECT_EQ(cache::loadLibrary(bytesA).value().get(), a.value().get());
    EXPECT_EQ(cache::functionAnalyses(a.value(), config), aFns);

    // Stored or not, every product equals the uncached computation.
    cache::Options off;
    off.memory = false;
    cache::configure(off);
    const auto raw = cache::loadLibrary(bytesB);
    ASSERT_TRUE(raw);
    const auto expected =
        summarize(*cache::functionAnalyses(raw.value(), config));
    EXPECT_EQ(summarize(*bFns), expected);
    EXPECT_EQ(summarize(*aFns), expected);
}

TEST_F(CacheTest, ColdAndWarmMemoryRankingsIdentical)
{
    const auto corpus = smallCorpus(3);
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    config.pipeline = cachingPipelineConfig();

    const eval::CorpusRunner runner(config);
    const auto cold = runner.run(corpus, false);
    const auto coldStats = cache::stats();
    EXPECT_GT(coldStats.misses, 0u);

    const auto warm = runner.run(corpus, false);
    const auto warmStats = cache::stats();
    EXPECT_GT(warmStats.hits, coldStats.hits);
    expectIdenticalOutcomes(cold, warm);

    // And both equal the fully uncached computation.
    cache::Options off;
    off.memory = false;
    off.disk = false;
    cache::configure(off);
    eval::CorpusRunner::Config rawConfig;
    rawConfig.jobs = 1;
    rawConfig.cache = false;
    const eval::CorpusRunner raw(rawConfig);
    expectIdenticalOutcomes(cold, raw.run(corpus, false));
}

TEST_F(CacheTest, SerialAndParallelRankingsIdentical)
{
    const auto corpus = smallCorpus(4);
    eval::CorpusRunner::Config serialConfig;
    serialConfig.jobs = 1;
    serialConfig.pipeline = cachingPipelineConfig();
    eval::CorpusRunner::Config parallelConfig = serialConfig;
    parallelConfig.jobs = 4;

    const auto serial =
        eval::CorpusRunner(serialConfig).run(corpus, false);
    cache::clearMemory();
    const auto parallel =
        eval::CorpusRunner(parallelConfig).run(corpus, false);
    expectIdenticalOutcomes(serial, parallel);

    // Warm parallel run (workers race on a hot cache) agrees too.
    const auto warmParallel =
        eval::CorpusRunner(parallelConfig).run(corpus, false);
    expectIdenticalOutcomes(serial, warmParallel);
}

TEST_F(CacheTest, RunFullWithCacheMatchesWithout)
{
    const auto corpus = smallCorpus(2);
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    config.pipeline = cachingPipelineConfig();
    const auto cached = eval::CorpusRunner(config).run(corpus, true);

    cache::Options off;
    off.memory = false;
    off.disk = false;
    cache::configure(off);
    eval::CorpusRunner::Config rawConfig;
    rawConfig.jobs = 1;
    rawConfig.cache = false;
    const auto raw = eval::CorpusRunner(rawConfig).run(corpus, true);

    ASSERT_EQ(cached.size(), raw.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached[i].inference.firstItsRank,
                  raw[i].inference.firstItsRank);
        EXPECT_EQ(cached[i].taint.ok, raw[i].taint.ok);
        EXPECT_EQ(cached[i].taint.sta.alerts, raw[i].taint.sta.alerts);
        EXPECT_EQ(cached[i].taint.staIts.alerts,
                  raw[i].taint.staIts.alerts);
        EXPECT_EQ(cached[i].taint.karonte.alerts,
                  raw[i].taint.karonte.alerts);
        EXPECT_EQ(cached[i].taint.sta.bugs, raw[i].taint.sta.bugs);
    }
}

// ---- disk tier ---------------------------------------------------------

TEST_F(CacheTest, DiskTierSurvivesProcessMemoryLoss)
{
    enableDisk();
    const auto corpus = smallCorpus(2);
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    config.pipeline = cachingPipelineConfig();
    const eval::CorpusRunner runner(config);

    const auto cold = runner.run(corpus, false);
    // Dropping the library tier simulates a fresh process; the second
    // run must be served from disk, bit-identically.
    cache::clearMemory();
    cache::resetStats();
    const auto warm = runner.run(corpus, false);
    const auto stats = cache::stats();
    EXPECT_GT(stats.diskHits, 0u);
    expectIdenticalOutcomes(cold, warm);
}

TEST_F(CacheTest, CorruptDiskEntriesDegradeToMisses)
{
    enableDisk();
    const std::string payload = "intermediate taint sources";
    cache::storeBlob("t", 7, 9, payload);
    cache::clearMemory();
    ASSERT_EQ(cache::fetchBlob("t", 7, 9), payload);

    const std::string path = cache::blobPath("t", 7, 9);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(fs::exists(path));

    const auto rewrite = [&](const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    std::string raw;
    {
        std::ifstream in(path, std::ios::binary);
        raw.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(raw.size(), 8u);

    // Bit flip in the payload: checksum mismatch.
    std::string flipped = raw;
    flipped[flipped.size() - 2] =
        static_cast<char>(flipped[flipped.size() - 2] ^ 0x40);
    rewrite(flipped);
    cache::clearMemory();
    cache::resetStats();
    EXPECT_FALSE(cache::fetchBlob("t", 7, 9).has_value());
    EXPECT_GT(cache::stats().diskCorrupt, 0u);

    // Version skew: a future format is a miss, not a parse attempt.
    std::string skewed = raw;
    skewed[4] = static_cast<char>(0x7f);
    rewrite(skewed);
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 7, 9).has_value());

    // Truncation: short reads never crash.
    rewrite(raw.substr(0, raw.size() / 2));
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 7, 9).has_value());

    // Key echo mismatch: an entry renamed onto another key's path
    // (stale or attacker-moved) is rejected.
    rewrite(raw);
    fs::copy_file(path, cache::blobPath("t", 8, 10),
                  fs::copy_options::overwrite_existing);
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 8, 10).has_value());

    // The intact original still hits.
    cache::clearMemory();
    EXPECT_EQ(cache::fetchBlob("t", 7, 9), payload);
}

TEST_F(CacheTest, FormatVersionSkewRecomputesAndRewritesAsV2)
{
    // A version-1 entry (same header layout, FNV-1a payload checksum)
    // under a real sample's key, as an older build would have left it.
    enableDisk();
    const auto corpus = smallCorpus(1);
    const core::PipelineConfig config = cachingPipelineConfig();
    const auto reference =
        core::FitsPipeline{core::PipelineConfig{}}.run(corpus[0].bytes);
    ASSERT_TRUE(reference.ok);
    core::BehaviorBundle bundle;
    bundle.imageInfo = reference.imageInfo;
    bundle.binaryName = reference.binaryName;
    bundle.numFunctions = reference.numFunctions;
    bundle.binaryBytes = reference.binaryBytes;
    bundle.behavior = reference.behavior;
    const std::string payload = core::encodeBehaviorBundle(bundle);

    const std::uint64_t key1 =
        support::fnv1a(corpus[0].bytes.data(), corpus[0].bytes.size());
    const std::uint64_t key2 =
        core::behaviorConfigFingerprint(config.behavior);
    const auto putLe = [](std::string &out, std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    std::string v1 = "FCH1";
    putLe(v1, 1, 4);
    putLe(v1, key1, 8);
    putLe(v1, key2, 8);
    putLe(v1, payload.size(), 8);
    putLe(v1, support::fnv1a(payload), 8);
    v1 += payload;
    const std::string path = cache::blobPath("behavior", key1, key2);
    fs::create_directories(dir_);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
    }

    // The old entry is corrupt and a miss; the sample is recomputed.
    const auto cold = core::FitsPipeline{config}.run(corpus[0].bytes);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cache::stats().diskCorrupt, 1u);
    EXPECT_EQ(cache::stats().diskMisses, 1u);
    EXPECT_EQ(cache::stats().diskHits, 0u);
    expectIdenticalRankings(cold.inference, reference.inference);

    // ...and stored again in the current format, version 2.
    std::string rewritten;
    {
        std::ifstream in(path, std::ios::binary);
        rewritten.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(rewritten.size(), v1.size());
    EXPECT_EQ(rewritten.compare(0, 4, "FCH1"), 0);
    EXPECT_EQ(rewritten.substr(4, 4), std::string("\x02\0\0\0", 4));
    EXPECT_EQ(rewritten.substr(v1.size() - payload.size()), payload);

    // The next run is a disk hit with a bit-identical ranking.
    cache::clearMemory();
    cache::resetStats();
    const auto warm = core::FitsPipeline{config}.run(corpus[0].bytes);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(cache::stats().diskHits, 1u);
    EXPECT_EQ(cache::stats().diskCorrupt, 0u);
    expectIdenticalRankings(warm.inference, reference.inference);
}

// ---- fault injection ---------------------------------------------------

TEST_F(CacheTest, NonCacheFaultsBypassEveryTier)
{
    enableDisk();
    EXPECT_TRUE(cache::memoryUsable());
    EXPECT_TRUE(cache::diskUsable());

    // A rule that can fire inside a cached computation forces bypass.
    ASSERT_TRUE(chaos::configure("unpack.*@50"));
    EXPECT_FALSE(cache::memoryUsable());
    EXPECT_FALSE(cache::diskUsable());

    // Faults confined to the cache's own sites leave it usable —
    // they exercise its degradation paths instead.
    ASSERT_TRUE(chaos::configure("cache.read@50,cache.write@50"));
    EXPECT_TRUE(cache::memoryUsable());
    EXPECT_TRUE(cache::diskUsable());
}

TEST_F(CacheTest, InjectedWriteFaultSkipsDiskEntry)
{
    enableDisk();
    ASSERT_TRUE(chaos::configure("cache.write"));
    cache::storeBlob("t", 1, 2, "payload");
    chaos::reset();
    cache::clearMemory();
    EXPECT_FALSE(cache::fetchBlob("t", 1, 2).has_value());
    EXPECT_FALSE(fs::exists(cache::blobPath("t", 1, 2)));
}

TEST_F(CacheTest, InjectedReadFaultDegradesToMiss)
{
    enableDisk();
    cache::storeBlob("t", 3, 4, "payload");
    cache::clearMemory();
    ASSERT_TRUE(chaos::configure("cache.read"));
    cache::resetStats();
    EXPECT_FALSE(cache::fetchBlob("t", 3, 4).has_value());
    EXPECT_GT(cache::stats().diskCorrupt, 0u);
    chaos::reset();
    EXPECT_EQ(cache::fetchBlob("t", 3, 4), std::string("payload"));
}

TEST_F(CacheTest, PipelineUnderCacheFaultsStillCorrect)
{
    enableDisk();
    const auto corpus = smallCorpus(2);
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    config.pipeline = cachingPipelineConfig();
    const eval::CorpusRunner runner(config);
    const auto baseline = runner.run(corpus, false);

    // Every cache access failing must not change a single score.
    ASSERT_TRUE(chaos::configure("cache.read,cache.write"));
    cache::clearMemory();
    const auto faulted = runner.run(corpus, false);
    expectIdenticalOutcomes(baseline, faulted);
}

} // namespace
} // namespace fits
