/** @file Tests of the parallel corpus evaluation engine: ThreadPool
 * semantics, CorpusRunner determinism vs the serial path, per-sample
 * failure isolation, logger thread-safety, and the DBSCAN
 * duplicate-seed regression. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "dbscan_oracle.hh"
#include "eval/corpus_runner.hh"
#include "mlkit/dbscan.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "synth/firmware_gen.hh"

namespace fits {
namespace {

// ---- ThreadPool ----------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask)
{
    support::ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
    EXPECT_EQ(pool.uncaughtExceptions(), 0u);
}

TEST(ThreadPool, ThrowingTaskDoesNotPoisonThePool)
{
    support::ThreadPool pool(3);
    std::atomic<int> completed{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&completed, i] {
            if (i == 7)
                throw std::runtime_error("task 7 exploded");
            ++completed;
        });
    }
    pool.wait();
    EXPECT_EQ(completed.load(), 19);
    EXPECT_EQ(pool.uncaughtExceptions(), 1u);
    EXPECT_EQ(pool.firstExceptionMessage(), "task 7 exploded");

    // The pool still accepts and runs work afterwards.
    pool.submit([&completed] { ++completed; });
    pool.wait();
    EXPECT_EQ(completed.load(), 20);
}

TEST(ThreadPool, WaitIsReusableAndIdempotent)
{
    support::ThreadPool pool(2);
    pool.wait(); // nothing submitted yet
    std::atomic<int> counter{0};
    pool.submit([&counter] { ++counter; });
    pool.wait();
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ResolveJobs, ExplicitThenEnvThenHardware)
{
    EXPECT_EQ(support::resolveJobs(5), 5u);

    ::setenv("FITS_JOBS", "3", 1);
    EXPECT_EQ(support::resolveJobs(0), 3u);
    EXPECT_EQ(support::resolveJobs(2), 2u); // explicit wins

    ::setenv("FITS_JOBS", "not-a-number", 1);
    EXPECT_EQ(support::resolveJobs(0), support::hardwareJobs());
    ::setenv("FITS_JOBS", "0", 1);
    EXPECT_EQ(support::resolveJobs(0), support::hardwareJobs());

    ::unsetenv("FITS_JOBS");
    EXPECT_EQ(support::resolveJobs(0), support::hardwareJobs());
    EXPECT_GE(support::hardwareJobs(), 1u);
}

// ---- CorpusRunner --------------------------------------------------

eval::CorpusRunner
runnerWithJobs(std::size_t jobs)
{
    eval::CorpusRunner::Config config;
    config.jobs = jobs;
    return eval::CorpusRunner(config);
}

void
expectIdenticalInference(const eval::InferenceOutcome &a,
                         const eval::InferenceOutcome &b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.failureStage, b.failureStage);
    EXPECT_EQ(a.firstItsRank, b.firstItsRank);
    EXPECT_EQ(a.binaryName, b.binaryName);
    EXPECT_EQ(a.numFunctions, b.numFunctions);
    EXPECT_EQ(a.binaryBytes, b.binaryBytes);
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t i = 0; i < a.ranking.size(); ++i) {
        EXPECT_EQ(a.ranking[i].entry, b.ranking[i].entry);
        EXPECT_EQ(a.ranking[i].name, b.ranking[i].name);
        EXPECT_DOUBLE_EQ(a.ranking[i].score, b.ranking[i].score);
    }
}

TEST(CorpusRunner, ParallelInferenceMatchesSerialOnStandardCorpus)
{
    const auto corpus = synth::generateStandardCorpus();
    const auto serial = runnerWithJobs(1).runInference(corpus);
    const auto parallel = runnerWithJobs(4).runInference(corpus);
    ASSERT_EQ(serial.size(), corpus.size());
    ASSERT_EQ(parallel.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE(corpus[i].spec.name);
        expectIdenticalInference(serial[i], parallel[i]);
    }
}

void
expectIdenticalEngine(const eval::EngineStats &a,
                      const eval::EngineStats &b)
{
    EXPECT_EQ(a.alerts, b.alerts);
    EXPECT_EQ(a.bugs, b.bugs);
}

void
expectIdenticalTaint(const eval::TaintOutcome &a,
                     const eval::TaintOutcome &b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    expectIdenticalEngine(a.karonte, b.karonte);
    expectIdenticalEngine(a.karonteIts, b.karonteIts);
    expectIdenticalEngine(a.sta, b.sta);
    expectIdenticalEngine(a.staIts, b.staIts);
    EXPECT_EQ(a.karonteBugs, b.karonteBugs);
    EXPECT_EQ(a.karonteItsBugs, b.karonteItsBugs);
    EXPECT_EQ(a.staBugs, b.staBugs);
    EXPECT_EQ(a.staItsBugs, b.staItsBugs);
}

/** A miniature corpus (one sample per vendor plus one failure) so the
 * heavier taint comparisons stay fast. */
std::vector<synth::GeneratedFirmware>
miniCorpus()
{
    std::vector<synth::GeneratedFirmware> corpus;
    const synth::VendorProfile profiles[] = {
        synth::netgearProfile(), synth::dlinkProfile(),
        synth::tplinkProfile(), synth::tendaProfile(),
        synth::ciscoProfile()};
    for (std::uint64_t i = 0; i < 5; ++i) {
        synth::SampleSpec spec;
        spec.profile = profiles[i];
        spec.profile.minCustomFns = 150;
        spec.profile.maxCustomFns = 220;
        spec.product = spec.profile.series.front();
        spec.version = "V1";
        spec.name = spec.product + "-V1";
        spec.seed = 0xab00 + i;
        corpus.push_back(synth::generateFirmware(spec));
    }
    synth::SampleSpec broken;
    broken.profile = synth::dlinkProfile();
    broken.product = broken.profile.series.front();
    broken.version = "V9";
    broken.name = broken.product + "-V9";
    broken.seed = 0xdead;
    broken.failure = synth::SampleSpec::FailureMode::OpaqueEncoding;
    broken.profile.encoding = fw::Encoding::Opaque;
    corpus.push_back(synth::generateFirmware(broken));
    return corpus;
}

TEST(CorpusRunner, ParallelTaintMatchesSerial)
{
    const auto corpus = miniCorpus();
    const auto serial = runnerWithJobs(1).runTaint(corpus);
    const auto parallel = runnerWithJobs(4).runTaint(corpus);
    ASSERT_EQ(serial.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE(corpus[i].spec.name);
        expectIdenticalTaint(serial[i], parallel[i]);
    }
    // The broken sample failed alone; the rest analyzed fine.
    EXPECT_FALSE(parallel.back().ok);
    for (std::size_t i = 0; i + 1 < corpus.size(); ++i)
        EXPECT_TRUE(parallel[i].ok);
}

TEST(CorpusRunner, RunFullSharesOneAnalysisPerSample)
{
    const auto corpus = miniCorpus();
    const auto runner = runnerWithJobs(3);
    const auto full = runner.runFull(corpus);
    const auto inference = runner.runInference(corpus);
    const auto taint = runner.runTaint(corpus);
    ASSERT_EQ(full.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE(corpus[i].spec.name);
        expectIdenticalInference(full[i].inference, inference[i]);
        expectIdenticalTaint(full[i].taint, taint[i]);
    }
}

TEST(CorpusRunner, TaintOutcomesCarrySampleIdentityEvenOnFailure)
{
    // Regression: the runTaint/runFull failure paths used to discard
    // the sample index, so an errored TaintOutcome could not be traced
    // back to the sample that produced it.
    const auto corpus = miniCorpus();
    const auto runner = runnerWithJobs(2);
    const auto taint = runner.runTaint(corpus);
    ASSERT_EQ(taint.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i)
        EXPECT_EQ(taint[i].spec.name, corpus[i].spec.name);
    EXPECT_FALSE(taint.back().ok); // the broken sample still failed
    EXPECT_FALSE(taint.back().spec.name.empty());

    const auto full = runner.runFull(corpus);
    ASSERT_EQ(full.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(full[i].taint.spec.name, corpus[i].spec.name);
        EXPECT_EQ(full[i].inference.spec.name, corpus[i].spec.name);
    }
}

TEST(CorpusRunner, ThrowingTaskFailsOnlyItsOwnSample)
{
    const auto runner = runnerWithJobs(4);
    struct Slot
    {
        bool ok = false;
        std::string error;
        int value = 0;
    };
    const auto results = runner.map<Slot>(
        16,
        [](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("sample 2 crashed");
            if (i == 9)
                throw 42; // non-std exception
            Slot slot;
            slot.ok = true;
            slot.value = static_cast<int>(i) * 10;
            return slot;
        },
        [](std::size_t, const std::string &message) {
            Slot slot;
            slot.error = message;
            return slot;
        });
    ASSERT_EQ(results.size(), 16u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2) {
            EXPECT_FALSE(results[i].ok);
            EXPECT_EQ(results[i].error, "sample 2 crashed");
        } else if (i == 9) {
            EXPECT_FALSE(results[i].ok);
            EXPECT_EQ(results[i].error, "unknown exception");
        } else {
            EXPECT_TRUE(results[i].ok);
            EXPECT_EQ(results[i].value, static_cast<int>(i) * 10);
        }
    }
}

// ---- Logger thread-safety ------------------------------------------

TEST(Logger, ConcurrentLoggingAndLevelChangesAreSafe)
{
    auto &logger = support::Logger::instance();
    const support::LogLevel before = logger.level();
    logger.setLevel(support::LogLevel::Error);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t, &logger] {
            for (int i = 0; i < 64; ++i) {
                // Below the threshold: exercises the concurrent
                // level check without spamming test output.
                support::logDebug("parallel-test",
                                  "worker " + std::to_string(t));
                if (i % 16 == 0) {
                    logger.setLevel(support::LogLevel::Error);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    logger.setLevel(before);
    SUCCEED();
}

// ---- DBSCAN duplicate-seed regression ------------------------------

using oracle::referenceDbscan;

TEST(Dbscan, DedupedSeedsPreserveLabelsOnDenseBlob)
{
    // A dense blob (every point within eps of every other) is the
    // worst case for the old expansion: each expanded point re-enqueued
    // all n neighbors, growing the deque O(n^2). Labels must be
    // identical with the duplicate-seed fix.
    support::Rng rng(0x5eed);
    ml::Matrix points;
    for (int i = 0; i < 120; ++i) {
        ml::Vec v(3);
        for (auto &x : v)
            x = rng.uniformReal() * 0.01;
        points.push_back(std::move(v));
    }
    // Two looser satellite groups plus genuine noise points.
    for (int i = 0; i < 40; ++i) {
        ml::Vec v(3);
        v[0] = 5.0 + rng.uniformReal() * 0.2;
        v[1] = rng.uniformReal() * 0.2;
        v[2] = (i % 2 == 0) ? rng.uniformReal() * 0.2
                            : 3.0 + rng.uniformReal() * 0.2;
        points.push_back(std::move(v));
    }
    for (int i = 0; i < 5; ++i) {
        ml::Vec v(3);
        v[0] = 100.0 + 10.0 * i;
        v[1] = -50.0;
        v[2] = 7.0 * i;
        points.push_back(std::move(v));
    }

    const ml::DbscanConfig config{0.5, 4, ml::Metric::Euclidean};
    const auto fixed = ml::dbscan(points, config);
    const auto reference = referenceDbscan(points, config);
    EXPECT_EQ(fixed.labels, reference.labels);
    EXPECT_EQ(fixed.numClusters, reference.numClusters);
    EXPECT_GE(fixed.numClusters, 3);
    EXPECT_EQ(fixed.noiseCount(), 5u);
}

TEST(Dbscan, UniformNoiseStillMatchesReference)
{
    support::Rng rng(0xd5);
    ml::Matrix points;
    for (int i = 0; i < 200; ++i) {
        ml::Vec v(4);
        for (auto &x : v)
            x = rng.uniformReal() * 10.0;
        points.push_back(std::move(v));
    }
    const ml::DbscanConfig config{0.8, 3, ml::Metric::Euclidean};
    const auto fixed = ml::dbscan(points, config);
    const auto reference = referenceDbscan(points, config);
    EXPECT_EQ(fixed.labels, reference.labels);
    EXPECT_EQ(fixed.numClusters, reference.numClusters);
}

} // namespace
} // namespace fits
