/** @file Tests for the fits::chaos fault-injection subsystem, the
 * support::Deadline cancel token, and pipeline robustness under
 * injected faults and corrupted inputs: spec parsing, deterministic
 * replay, a sweep proving every catalog site fires and is handled as
 * a typed error or degraded result, the corpus-runner retry path,
 * truncation/bit-flip corruption of whole firmware images, hostile
 * IR sealed inside a well-formed container, and a seeded FBIN fuzzer
 * that drives mutated binaries through the pipeline and both taint
 * engines. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/function_analysis.hh"
#include "binary/fbin.hh"
#include "chaos/chaos.hh"
#include "core/pipeline.hh"
#include "eval/corpus_runner.hh"
#include "eval/harness.hh"
#include "firmware/fwimg.hh"
#include "firmware/select.hh"
#include "ir/parse.hh"
#include "support/deadline.hh"
#include "support/rng.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace fits {
namespace {

/** Every chaos test disarms injection on the way out so no global
 * state leaks into tests that run later in the same process. */
class ChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override { chaos::reset(); }
    void TearDown() override { chaos::reset(); }
};

/** One small-but-complete firmware sample shared within a test. */
const synth::GeneratedFirmware &
sampleFw()
{
    static const synth::GeneratedFirmware fw = [] {
        synth::SampleSpec spec;
        spec.profile = synth::tendaProfile();
        spec.profile.minCustomFns = 40;
        spec.profile.maxCustomFns = 60;
        spec.product = "AC6";
        spec.version = "V1";
        spec.name = "chaos-sample";
        spec.seed = 0xc0a5;
        return synth::generateFirmware(spec);
    }();
    return fw;
}

// ---- spec parsing ------------------------------------------------------

TEST_F(ChaosTest, DisabledByDefault)
{
    EXPECT_FALSE(chaos::enabled());
    EXPECT_FALSE(chaos::shouldInject("unpack.magic"));
    // The disabled fast path must not even count hits.
    EXPECT_EQ(chaos::hitCount("unpack.magic"), 0u);
    EXPECT_EQ(chaos::totalFires(), 0u);
}

TEST_F(ChaosTest, ConfigureAcceptsGrammarForms)
{
    std::string error;
    EXPECT_TRUE(chaos::configure("unpack.magic", &error)) << error;
    EXPECT_TRUE(chaos::enabled());
    EXPECT_TRUE(chaos::configure("unpack.*", &error)) << error;
    EXPECT_TRUE(chaos::configure("*", &error)) << error;
    EXPECT_TRUE(chaos::configure("unpack.magic@50", &error)) << error;
    EXPECT_TRUE(chaos::configure("unpack.magic#3", &error)) << error;
    EXPECT_TRUE(chaos::configure("unpack.magic@50#3:42", &error))
        << error;
    EXPECT_TRUE(chaos::configure("unpack.magic,fbin.load,taint.*:7",
                                 &error))
        << error;
    // Empty spec disarms and is not an error.
    EXPECT_TRUE(chaos::configure("", &error)) << error;
    EXPECT_FALSE(chaos::enabled());
}

TEST_F(ChaosTest, ConfigureRejectsMalformedSpecs)
{
    const char *bad[] = {
        "bogus.site",       // not in the catalog
        "unpack.magic@",    // missing percentage
        "unpack.magic@abc", // non-numeric percentage
        "unpack.magic@101", // percentage out of range
        "unpack.magic#",    // missing fire limit
        "unpack.magic#0",   // fire limit below 1
        "unpack.magic:",    // empty seed
        "unpack.magic:xyz", // non-numeric seed
        "un*ack.magic",     // '*' not a trailing glob
        ",",                // empty rules
        "@50",              // rule without a site
    };
    for (const char *spec : bad) {
        std::string error;
        EXPECT_FALSE(chaos::configure(spec, &error))
            << "spec '" << spec << "' should be rejected";
        EXPECT_FALSE(error.empty()) << spec;
        EXPECT_FALSE(chaos::enabled())
            << "a rejected spec must leave injection disarmed";
    }
}

TEST_F(ChaosTest, CatalogIsConsistent)
{
    const auto &sites = chaos::knownSites();
    ASSERT_GE(sites.size(), 14u);
    std::vector<std::string> names;
    for (const auto &site : sites) {
        names.push_back(site.name);
        EXPECT_EQ(chaos::siteByName(site.name), &site);
        EXPECT_NE(site.stage, support::Stage::None) << site.name;
        EXPECT_NE(std::string(site.description), "") << site.name;

        const auto status = chaos::injectedStatus(site.name);
        EXPECT_EQ(status.code(), support::ErrorCode::FaultInjected);
        EXPECT_EQ(status.stage(), site.stage);
        EXPECT_TRUE(status.isTransient()) << site.name;
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
        << "site names must be unique";
    EXPECT_EQ(chaos::siteByName("no.such.site"), nullptr);
}

// ---- deterministic decisions -------------------------------------------

TEST_F(ChaosTest, PercentDecisionsReplayPerSeed)
{
    const auto pattern = [](const char *spec) {
        std::string error;
        EXPECT_TRUE(chaos::configure(spec, &error)) << error;
        std::vector<bool> fired;
        for (int i = 0; i < 256; ++i)
            fired.push_back(chaos::shouldInject("unpack.magic"));
        return fired;
    };

    const auto a = pattern("unpack.magic@40:123");
    const auto b = pattern("unpack.magic@40:123");
    EXPECT_EQ(a, b) << "same spec + seed must replay exactly";

    const auto c = pattern("unpack.magic@40:124");
    EXPECT_NE(a, c) << "a different seed reshuffles the hit indices";

    // ~40% of 256 hits fire; the deterministic hash keeps this within
    // very loose bounds.
    const auto fires = std::count(a.begin(), a.end(), true);
    EXPECT_GT(fires, 256 / 10);
    EXPECT_LT(fires, 256 * 9 / 10);
}

TEST_F(ChaosTest, FireLimitStopsInjection)
{
    ASSERT_TRUE(chaos::configure("unpack.magic#2"));
    int fires = 0;
    for (int i = 0; i < 10; ++i)
        fires += chaos::shouldInject("unpack.magic") ? 1 : 0;
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(chaos::fireCount("unpack.magic"), 2u);
    EXPECT_EQ(chaos::hitCount("unpack.magic"), 10u);
    EXPECT_EQ(chaos::totalFires(), 2u);
}

TEST_F(ChaosTest, GlobPatternsMatchByPrefix)
{
    ASSERT_TRUE(chaos::configure("unpack.*"));
    EXPECT_TRUE(chaos::shouldInject("unpack.magic"));
    EXPECT_TRUE(chaos::shouldInject("unpack.header"));
    EXPECT_FALSE(chaos::shouldInject("fbin.load"));

    ASSERT_TRUE(chaos::configure("*"));
    for (const auto &site : chaos::knownSites())
        EXPECT_TRUE(chaos::shouldInject(site.name)) << site.name;
}

TEST_F(ChaosTest, FirstMatchingRuleWins)
{
    // The exact-name rule at 0% shadows the glob for unpack.magic
    // only; sibling sites still fall through to the glob.
    ASSERT_TRUE(chaos::configure("unpack.magic@0,unpack.*"));
    EXPECT_FALSE(chaos::shouldInject("unpack.magic"));
    EXPECT_TRUE(chaos::shouldInject("unpack.header"));
}

// ---- every site fires and is handled -----------------------------------

TEST_F(ChaosTest, InjectedUnpackFaultIsTyped)
{
    ASSERT_TRUE(chaos::configure("unpack.magic"));
    const auto unpacked = fw::unpackFirmware(sampleFw().bytes);
    ASSERT_FALSE(unpacked);
    const auto &status = unpacked.status();
    EXPECT_EQ(status.code(), support::ErrorCode::FaultInjected);
    EXPECT_EQ(status.stage(), support::Stage::Unpack);
    EXPECT_NE(status.message().find("unpack.magic"),
              std::string::npos);
}

TEST_F(ChaosTest, EveryPipelineSiteFiresAndIsHandled)
{
    // Arm one site at a time (× several seeds) at 100% and push a
    // valid image through the full pipeline: the run must not crash,
    // the site must actually fire, and the outcome must be either a
    // typed failure or a degraded-but-ok partial result.
    const core::FitsPipeline pipeline;
    for (const auto &site : chaos::knownSites()) {
        const std::string name = site.name;
        if (name.rfind("taint.", 0) == 0 || name == "ir.parse")
            continue; // those paths are driven separately below
        if (name.rfind("cache.", 0) == 0)
            continue; // driven by test_cache.cc (needs a disk tier)
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            ASSERT_TRUE(chaos::configure(
                name + ":" + std::to_string(seed)));
            const auto artifact = pipeline.analyze(sampleFw().bytes);
            EXPECT_GE(chaos::fireCount(name), 1u)
                << name << " seed " << seed << " never fired";
            if (artifact.ok) {
                EXPECT_TRUE(artifact.degraded)
                    << name << " seed " << seed
                    << ": an ok run under injection must be degraded";
                EXPECT_FALSE(artifact.issues.empty()) << name;
            } else {
                EXPECT_FALSE(artifact.status.isOk())
                    << name << " seed " << seed
                    << ": failures must carry a typed status";
                EXPECT_FALSE(artifact.error.empty()) << name;
            }
        }
    }
}

TEST_F(ChaosTest, IrParseSiteFailsTextualParse)
{
    // The pipeline lifts binaries straight from FBIN statements; the
    // ir.parse site guards the *textual* FIR parser, so it is driven
    // here directly.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        ASSERT_TRUE(chaos::configure(
            "ir.parse:" + std::to_string(seed)));
        const auto parsed =
            ir::parseFunction("func f 0x1000 tmps 0 {\n}\n");
        ASSERT_FALSE(parsed) << "seed " << seed;
        EXPECT_EQ(parsed.status().code(),
                  support::ErrorCode::FaultInjected);
        EXPECT_EQ(parsed.status().stage(), support::Stage::IrParse);
        EXPECT_GE(chaos::fireCount("ir.parse"), 1u);
    }
}

TEST_F(ChaosTest, TaintSitesDegradeEngineRuns)
{
    // Build one clean analysis, then make each engine trip its
    // injected deadline: the report is cut short (flagged), never a
    // crash, and alerts stay a valid (possibly empty) partial set.
    const core::FitsPipeline pipeline;
    const auto artifact = pipeline.analyze(sampleFw().bytes);
    ASSERT_TRUE(artifact.ok) << artifact.error;
    ASSERT_TRUE(artifact.hasAnalysis());
    const auto sources = taint::classicalTaintSources();

    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        ASSERT_TRUE(chaos::configure(
            "taint.sta:" + std::to_string(seed)));
        const taint::StaEngine sta;
        const auto staReport = sta.run(*artifact.analysis, sources);
        EXPECT_TRUE(staReport.deadlineExpired) << "seed " << seed;
        EXPECT_GE(chaos::fireCount("taint.sta"), 1u);

        ASSERT_TRUE(chaos::configure(
            "taint.karonte:" + std::to_string(seed)));
        const taint::KaronteEngine karonte;
        const auto kReport = karonte.run(*artifact.analysis, sources);
        EXPECT_TRUE(kReport.deadlineExpired) << "seed " << seed;
        EXPECT_GE(chaos::fireCount("taint.karonte"), 1u);
    }
}

TEST_F(ChaosTest, MissingLibraryDegradesNotFails)
{
    // select.library makes every dependency lift fail. The pipeline
    // must keep going on the main binary: either a degraded success
    // or a typed inference failure (no anchors without libraries) —
    // never a crash, never an untyped error.
    ASSERT_TRUE(chaos::configure("select.library"));
    const core::FitsPipeline pipeline;
    const auto artifact = pipeline.analyze(sampleFw().bytes);
    if (artifact.ok) {
        EXPECT_TRUE(artifact.degraded);
        bool sawMissingLibrary = false;
        for (const auto &issue : artifact.issues) {
            if (issue.code() == support::ErrorCode::NotFound)
                sawMissingLibrary = true;
        }
        EXPECT_TRUE(sawMissingLibrary);
    } else {
        EXPECT_EQ(artifact.failureStage,
                  core::PipelineResult::FailureStage::Inference);
        EXPECT_FALSE(artifact.status.isOk());
    }
}

// ---- retry and bit-identity --------------------------------------------

TEST_F(ChaosTest, CorpusRunnerRetriesTransientFaultOnce)
{
    // A single-shot unpack fault: the first attempt fails with a
    // transient typed error, the retry sails through (the fire limit
    // is exhausted), and the outcome is flagged as retried.
    ASSERT_TRUE(chaos::configure("unpack.magic#1:1"));
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    const eval::CorpusRunner runner(config);
    const std::vector<synth::GeneratedFirmware> corpus = {sampleFw()};
    const auto outcomes = runner.runInference(corpus);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_TRUE(outcomes[0].retried);
    EXPECT_EQ(chaos::fireCount("unpack.magic"), 1u);
}

TEST_F(ChaosTest, DeterministicParseErrorsAreNotRetried)
{
    // An opaque-encoded image fails the same way every time; the
    // runner must not waste a retry on it.
    synth::SampleSpec spec = sampleFw().spec;
    spec.name = "chaos-opaque";
    spec.failure = synth::SampleSpec::FailureMode::OpaqueEncoding;
    spec.profile.encoding = fw::Encoding::Opaque;
    eval::CorpusRunner::Config config;
    config.jobs = 1;
    const eval::CorpusRunner runner(config);
    const auto outcomes =
        runner.runInference({synth::generateFirmware(spec)});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[0].retried);
    EXPECT_FALSE(outcomes[0].status.isTransient())
        << outcomes[0].status.toString();
}

TEST_F(ChaosTest, DisarmedRunsAreIdentical)
{
    // With injection off, repeated runs are bit-identical and no site
    // records a hit (the disabled path is a single atomic load).
    const core::FitsPipeline pipeline;
    const auto first = pipeline.run(sampleFw().bytes);
    const auto second = pipeline.run(sampleFw().bytes);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(second.ok);
    EXPECT_FALSE(first.degraded);
    ASSERT_EQ(first.inference.ranking.size(),
              second.inference.ranking.size());
    for (std::size_t i = 0; i < first.inference.ranking.size(); ++i) {
        EXPECT_EQ(first.inference.ranking[i].entry,
                  second.inference.ranking[i].entry);
        EXPECT_DOUBLE_EQ(first.inference.ranking[i].score,
                         second.inference.ranking[i].score);
    }
    for (const auto &site : chaos::knownSites())
        EXPECT_EQ(chaos::hitCount(site.name), 0u) << site.name;
}

// ---- deadlines ---------------------------------------------------------

TEST(Deadline, DefaultNeverExpires)
{
    const support::Deadline d;
    EXPECT_FALSE(d.active());
    EXPECT_FALSE(d.expired());
    for (std::size_t i = 0; i < 1024; ++i)
        EXPECT_FALSE(d.expiredCoarse(i));
    EXPECT_GT(d.remainingMs(), 1e12);
}

TEST(Deadline, AfterMsExpiresAndCoarseChecksAmortize)
{
    const auto expired = support::Deadline::afterMs(-1.0);
    EXPECT_TRUE(expired.active());
    EXPECT_TRUE(expired.expired());
    EXPECT_LT(expired.remainingMs(), 0.0);
    // The coarse check only reads the clock every 256th iteration.
    EXPECT_TRUE(expired.expiredCoarse(0));
    EXPECT_FALSE(expired.expiredCoarse(1));
    EXPECT_FALSE(expired.expiredCoarse(255));
    EXPECT_TRUE(expired.expiredCoarse(256));

    const auto distant = support::Deadline::afterMs(1e9);
    EXPECT_TRUE(distant.active());
    EXPECT_FALSE(distant.expired());
    EXPECT_GT(distant.remainingMs(), 0.0);
}

TEST(Deadline, EnvStageTimeoutIsNonNegative)
{
    // Unset (the test environment) parses as "no deadline".
    EXPECT_GE(support::envStageTimeoutMs(), 0.0);
}

TEST(Deadline, ExpiredBehaviorBudgetDegradesPipeline)
{
    synth::SampleSpec spec;
    spec.profile = synth::tendaProfile();
    spec.profile.minCustomFns = 40;
    spec.profile.maxCustomFns = 60;
    spec.product = "AC6";
    spec.version = "V1";
    spec.name = "deadline-sample";
    spec.seed = 0xdead;
    const auto fw = synth::generateFirmware(spec);

    core::PipelineConfig config;
    config.budgets.behaviorMs = 1e-6; // expires immediately
    const core::FitsPipeline pipeline(config);
    const auto artifact = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(artifact.ok) << artifact.error;
    EXPECT_TRUE(artifact.degraded);
    bool sawTimeout = false;
    for (const auto &issue : artifact.issues) {
        if (issue.code() == support::ErrorCode::Timeout &&
            issue.stage() == support::Stage::Ucse)
            sawTimeout = true;
    }
    EXPECT_TRUE(sawTimeout);
}

TEST(Deadline, ExpiredTaintBudgetFlagsReports)
{
    synth::SampleSpec spec;
    spec.profile = synth::tendaProfile();
    spec.profile.minCustomFns = 40;
    spec.profile.maxCustomFns = 60;
    spec.product = "AC6";
    spec.version = "V1";
    spec.name = "taint-deadline-sample";
    spec.seed = 0x7a1;
    const auto fw = synth::generateFirmware(spec);

    const core::FitsPipeline pipeline;
    const auto artifact = pipeline.analyze(fw.bytes);
    ASSERT_TRUE(artifact.ok) << artifact.error;

    const auto outcome =
        eval::taintOutcome(artifact, fw.spec, fw.truth, 1e-6);
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.degraded);
    EXPECT_FALSE(outcome.issues.empty());
    for (const auto &issue : outcome.issues)
        EXPECT_EQ(issue.code(), support::ErrorCode::Timeout);
}

// ---- corrupted whole images --------------------------------------------

TEST(Corruption, TruncatedImagesFailTypedNeverCrash)
{
    const auto &bytes = sampleFw().bytes;
    const core::FitsPipeline pipeline;
    // Every short prefix plus a stride over the long tail: each must
    // come back as a typed unpack-stage failure, not a crash.
    for (std::size_t cut = 0; cut < bytes.size();
         cut += (cut < 512 ? 13 : 997)) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + cut);
        const auto artifact = pipeline.analyze(prefix);
        ASSERT_FALSE(artifact.ok) << "prefix length " << cut;
        EXPECT_FALSE(artifact.status.isOk()) << cut;
        EXPECT_EQ(artifact.status.stage(), support::Stage::Unpack)
            << "prefix length " << cut << ": "
            << artifact.status.toString();
    }
}

TEST(Corruption, BitFlippedImagesFailCleanlyOrParse)
{
    const auto &bytes = sampleFw().bytes;
    const core::FitsPipeline pipeline;
    support::Rng rng(0xf11b);
    for (int round = 0; round < 100; ++round) {
        auto mutated = bytes;
        // Bias toward the structural front of the image (magic,
        // header, file table) where flips exercise parser edges.
        const std::size_t limit = round % 2 == 0
                                      ? std::min<std::size_t>(
                                            mutated.size(), 2048)
                                      : mutated.size();
        const std::size_t flips = 1 + rng.index(4);
        for (std::size_t i = 0; i < flips; ++i)
            mutated[rng.index(limit)] ^=
                static_cast<std::uint8_t>(1u << rng.index(8));
        const auto artifact = pipeline.analyze(mutated);
        if (!artifact.ok) {
            EXPECT_FALSE(artifact.status.isOk()) << "round " << round;
            EXPECT_FALSE(artifact.error.empty()) << "round " << round;
        }
    }
    SUCCEED();
}

/** Re-seal sampleFw() with `mutate` applied to its network binary's
 * IR. The FBIN encoding and the FWIMG container (checksum included)
 * stay well-formed; only the IR they carry is hostile. The rewritten
 * FBIN bytes are returned in `fbin`. */
std::vector<std::uint8_t>
resealWithHostileIr(const std::function<void(ir::Program &)> &mutate,
                    std::vector<std::uint8_t> *fbin)
{
    auto unpacked = fw::unpackFirmware(sampleFw().bytes);
    const auto target =
        fw::selectAnalysisTarget(unpacked.value().filesystem);
    const std::string mainName = target.value().main->name;

    fw::FirmwareImage hostile;
    hostile.info = unpacked.value().info;
    for (const auto &file : unpacked.value().filesystem.files()) {
        fw::FileEntry entry = file;
        auto loaded = bin::loadBinary(file.bytes);
        if (loaded && loaded.value().name == mainName) {
            bin::BinaryImage image = loaded.take();
            mutate(image.program);
            entry.bytes = bin::writeBinary(image);
            *fbin = entry.bytes;
        }
        hostile.filesystem.addFile(std::move(entry));
    }
    return fw::packFirmware(hostile);
}

TEST(Corruption, HostileIrInSealedImageFailsTypedNeverCrash)
{
    const std::vector<std::function<void(ir::Program &)>> mutations = {
        // A statement defines a temporary past the function's numTmps.
        [](ir::Program &program) {
            for (auto &fn : program.functions()) {
                for (auto &block : fn.blocks) {
                    for (auto &stmt : block.stmts) {
                        if (stmt.definesTmp()) {
                            stmt.dst = fn.numTmps;
                            return;
                        }
                    }
                }
            }
        },
        // A numTmps no statement count justifies (~2^31 slots).
        [](ir::Program &program) {
            program.functions().front().numTmps = 0x7fffffff;
        },
    };
    const core::FitsPipeline pipeline;
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        std::vector<std::uint8_t> fbin;
        const auto sealed = resealWithHostileIr(mutations[i], &fbin);
        ASSERT_FALSE(fbin.empty()) << "mutation " << i;

        // The loader rejects the IR outright, naming the problem.
        const auto loaded = bin::loadBinary(fbin);
        ASSERT_FALSE(loaded) << "mutation " << i;
        EXPECT_EQ(loaded.status().code(), support::ErrorCode::Corrupt)
            << "mutation " << i;
        EXPECT_NE(loaded.errorMessage().find("invalid IR"),
                  std::string::npos)
            << loaded.errorMessage();

        // The sealed container unpacks, and the pipeline turns the
        // hostile binary into a typed failure instead of handing it
        // to UCSE.
        ASSERT_TRUE(fw::unpackFirmware(sealed)) << "mutation " << i;
        const auto artifact = pipeline.analyze(sealed);
        EXPECT_FALSE(artifact.ok) << "mutation " << i;
        EXPECT_FALSE(artifact.status.isOk()) << "mutation " << i;
        EXPECT_FALSE(artifact.error.empty()) << "mutation " << i;
    }
}

/** Flip a bit of, randomize, or saturate each of 1-8 random bytes. */
void
mutateBytes(std::vector<std::uint8_t> &bytes, support::Rng &rng)
{
    const std::size_t edits = 1 + rng.index(8);
    for (std::size_t e = 0; e < edits; ++e) {
        auto &byte = bytes[rng.index(bytes.size())];
        switch (rng.index(3)) {
          case 0:
            byte ^= static_cast<std::uint8_t>(1u << rng.index(8));
            break;
          case 1:
            byte = static_cast<std::uint8_t>(rng.next());
            break;
          default:
            byte = rng.chance(0.5) ? 0xff : 0x00;
            break;
        }
    }
}

TEST(Corruption, SeededFbinMutationsFailTypedThroughBothEngines)
{
    // Structure-aware fuzzing of the FBIN trust boundary: mutate 1-8
    // bytes of a random FBIN (executable or library) in a random
    // standard-corpus sample, re-seal the image so the container stays
    // well-formed, and run the full pipeline plus the Karonte and STA
    // engines. A mutation may be accepted (and analyzed) or rejected,
    // but every failure must be typed, never a crash or an escape.
    const auto dataset = synth::standardDataset();
    std::size_t rounds = 0, failed = 0, analyzed = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        support::Rng rng(0xfb1f0000 + seed);
        for (int round = 0; round < 25; ++round) {
            auto fw = synth::generateFirmware(rng.pick(dataset));
            auto unpacked = fw::unpackFirmware(fw.bytes);
            if (!unpacked)
                continue; // an encrypted or corrupt sample: no FBINs
            fw::FirmwareImage image = unpacked.take();
            std::vector<std::size_t> fbins;
            const auto &files = image.filesystem.files();
            for (std::size_t i = 0; i < files.size(); ++i) {
                if (files[i].type == fw::FileType::Executable ||
                    files[i].type == fw::FileType::Library)
                    fbins.push_back(i);
            }
            ASSERT_FALSE(fbins.empty());
            const std::size_t target = rng.pick(fbins);

            fw::FirmwareImage mutated;
            mutated.info = image.info;
            for (std::size_t i = 0; i < files.size(); ++i) {
                fw::FileEntry entry = files[i];
                if (i == target && !entry.bytes.empty())
                    mutateBytes(entry.bytes, rng);
                mutated.filesystem.addFile(std::move(entry));
            }
            fw.bytes = fw::packFirmware(mutated);

            SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                         std::to_string(round) + ": " + fw.spec.name +
                         " " + files[target].path);
            const auto outcome = eval::runTaint(fw);
            ++rounds;
            if (outcome.ok) {
                ++analyzed;
            } else {
                ++failed;
                EXPECT_FALSE(outcome.status.isOk());
                EXPECT_FALSE(outcome.error.empty());
            }
            for (const auto &issue : outcome.issues)
                EXPECT_FALSE(issue.isOk());
        }
    }
    EXPECT_GE(rounds, 80u);
    // Both outcomes occur, so the mutations reach the engines and the
    // loader's rejections alike.
    EXPECT_GT(failed, 0u);
    EXPECT_GT(analyzed, 0u);
}

TEST(Corruption, DeepBlockChainAnalyzesOnWorkerStack)
{
    // A valid function whose 250,000 blocks each jump to the next: a
    // recursive depth-first walk of its CFG overflows a thread stack.
    ir::Function chain;
    chain.entry = 0x10000;
    const std::size_t depth = 250000;
    chain.blocks.reserve(depth);
    for (std::size_t i = 0; i < depth; ++i) {
        ir::BasicBlock block;
        block.addr = chain.entry + 0x10 * i;
        if (i + 1 < depth)
            block.stmts.push_back(ir::Stmt::jump(block.addr + 0x10));
        else
            block.stmts.push_back(ir::Stmt::ret());
        chain.blocks.push_back(std::move(block));
    }
    const bin::BinaryImage image;
    std::size_t reachable = 0, backEdges = 1;
    std::thread worker([&] {
        const auto fa = analysis::FunctionAnalysis::analyze(image, chain);
        reachable = fa.cfg.rpo().size();
        backEdges = fa.loops.backEdges.size();
    });
    worker.join();
    EXPECT_EQ(reachable, depth);
    EXPECT_EQ(backEdges, 0u);
}

} // namespace
} // namespace fits
