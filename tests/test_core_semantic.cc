/** @file Unit tests for the symbol-name prior (vendor mode) and its
 * integration into inference. */

#include <gtest/gtest.h>

#include "core/infer.hh"
#include "core/semantic.hh"
#include "eval/harness.hh"
#include "synth/firmware_gen.hh"

namespace fits::core {
namespace {

TEST(SemanticName, NeutralForStripped)
{
    EXPECT_DOUBLE_EQ(semanticNameScore(""), 0.5);
}

TEST(SemanticName, GetterVocabularyScoresHigh)
{
    EXPECT_GT(semanticNameScore("websGetVar"), 0.8);
    EXPECT_GT(semanticNameScore("fetch_field"), 0.6);
    EXPECT_GT(semanticNameScore("http_param_value"), 0.6);
    EXPECT_GT(semanticNameScore("GetVar"), 0.7); // case-insensitive
}

TEST(SemanticName, LoggingAndConfigScoreLow)
{
    EXPECT_LT(semanticNameScore("print_error"), 0.3);
    EXPECT_LT(semanticNameScore("log_format"), 0.4);
    EXPECT_LT(semanticNameScore("nvram_get"), 0.5); // get vs nvram
    EXPECT_LT(semanticNameScore("cfg_find_entry"), 0.5);
}

TEST(SemanticName, NeutralForUnknownNames)
{
    EXPECT_DOUBLE_EQ(semanticNameScore("sub_10400"), 0.5);
    EXPECT_DOUBLE_EQ(semanticNameScore("xyzzy"), 0.5);
}

TEST(SemanticName, ClampedToUnitInterval)
{
    const double s =
        semanticNameScore("getvar_get_fetch_find_query_var_param");
    EXPECT_LE(s, 1.0);
    EXPECT_GE(semanticNameScore("err_log_print_dbg_nvram_cfg_sys"),
              0.0);
}

TEST(VendorMode, SymbolPriorImprovesRanking)
{
    // A vendor sample whose strong confounders outrank the ITS when
    // stripped; with symbols + the prior, websGetVar must win.
    synth::SampleSpec spec;
    spec.profile = synth::ciscoProfile(); // always 2 strong confounders
    spec.profile.minCustomFns = 150;
    spec.profile.maxCustomFns = 200;
    spec.product = "RV130X";
    spec.version = "V1";
    spec.name = "RV130X-V1";
    spec.seed = 0x99;
    spec.keepSymbols = true;
    const auto fw = synth::generateFirmware(spec);

    const auto outcome = eval::runInference(fw);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    const int plainRank = outcome.firstItsRank;
    ASSERT_GT(plainRank, 1); // confounders win without the prior

    InferConfig config;
    config.useSymbolNames = true;
    const auto boosted = inferIts(outcome.behavior, config);
    EXPECT_EQ(eval::rankOfFirstIts(boosted.ranking, fw.truth), 1);
}

TEST(VendorMode, NoEffectOnStrippedBinaries)
{
    synth::SampleSpec spec;
    spec.profile = synth::tendaProfile();
    spec.profile.minCustomFns = 150;
    spec.profile.maxCustomFns = 200;
    spec.product = "AC9";
    spec.version = "V1";
    spec.name = "AC9-V1";
    spec.seed = 0x77;
    const auto fw = synth::generateFirmware(spec); // stripped
    const auto outcome = eval::runInference(fw);
    ASSERT_TRUE(outcome.ok);

    InferConfig config;
    config.useSymbolNames = true;
    const auto with = inferIts(outcome.behavior, config);
    const auto without = inferIts(outcome.behavior);
    ASSERT_EQ(with.ranking.size(), without.ranking.size());
    for (std::size_t i = 0; i < with.ranking.size(); ++i) {
        EXPECT_EQ(with.ranking[i].entry, without.ranking[i].entry);
        EXPECT_DOUBLE_EQ(with.ranking[i].score,
                         without.ranking[i].score);
    }
}

TEST(VendorMode, GeneratorEmitsSymbols)
{
    synth::SampleSpec spec;
    spec.profile = synth::netgearProfile();
    spec.profile.minCustomFns = 120;
    spec.profile.maxCustomFns = 150;
    spec.product = "R7000P";
    spec.version = "V1";
    spec.name = "R7000P-V1";
    spec.seed = 0x31;
    spec.keepSymbols = true;
    const auto result = synth::generateHttpd(spec);
    EXPECT_FALSE(result.image.stripped);
    ASSERT_FALSE(result.truth.itsFunctions.empty());
    const ir::Function *its = result.image.program.functionAt(
        result.truth.itsFunctions[0]);
    ASSERT_NE(its, nullptr);
    EXPECT_EQ(its->name, "websGetVar");
    // Every function has a name; symbols table populated.
    for (const auto &fn : result.image.program.functions())
        EXPECT_FALSE(fn.name.empty());
    EXPECT_EQ(result.image.symbols.size(),
              result.image.program.size());
}

/** Appends a function with the given BFV to a hand-built repr. */
void
addFunction(BehaviorRepr &repr, const Bfv &bfv, bool custom,
            bool anchor)
{
    const auto id = static_cast<analysis::FnId>(repr.records.size());
    FunctionRecord rec;
    rec.id = id;
    rec.entry = 0x1000 + 0x100 * id;
    rec.isCustom = custom;
    rec.isAnchor = anchor;
    rec.bfv = bfv;
    rec.augmentedCfg = {1, 1};
    rec.attributedCfg = {1, 1};
    repr.records.push_back(std::move(rec));
    if (custom)
        repr.customFns.push_back(id);
    if (anchor)
        repr.anchorFns.push_back(id);
}

/** An anchor-shaped BFV (loop over a parameter, many callers). */
Bfv
anchorBfv()
{
    Bfv anchor;
    anchor.numBlocks = 5;
    anchor.hasLoop = true;
    anchor.numCallers = 10;
    anchor.numParams = 2;
    anchor.paramsControlLoop = true;
    anchor.paramsControlBranch = true;
    return anchor;
}

TEST(NoisePolicy, DiscardingNoiseDropsTheItsWhenItIsAnOutlier)
{
    // Fixture: one ITS-shaped function among 40 trivial ones. The ITS
    // is a density outlier -> DBSCAN noise. With the singleton policy
    // it survives to the complexity filter and wins; with noise
    // discarded it cannot appear in the ranking at all.
    BehaviorRepr repr;

    Bfv its;
    its.numBlocks = 14;
    its.hasLoop = true;
    its.numCallers = 8;
    its.numParams = 3;
    its.numAnchorCalls = 5;
    its.numLibCalls = 6;
    its.paramsControlLoop = true;
    its.paramsControlBranch = true;
    its.paramsToAnchor = true;
    its.argsHaveStrings = true;
    its.numDistinctStrings = 5;
    addFunction(repr, its, true, false);
    const ir::Addr itsEntry = repr.records[0].entry;

    for (int i = 0; i < 40; ++i) {
        Bfv trivial;
        trivial.numBlocks = 1 + i % 2;
        trivial.numCallers = 1;
        addFunction(repr, trivial, true, false);
    }
    addFunction(repr, anchorBfv(), false, true);

    const auto kept = inferIts(repr);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept.ranking.front().entry, itsEntry);

    InferConfig drop;
    drop.noiseAsSingletons = false;
    const auto dropped = inferIts(repr, drop);
    ASSERT_TRUE(dropped.ok());
    for (const auto &rf : dropped.ranking)
        EXPECT_NE(rf.entry, itsEntry);
}

TEST(NoisePolicy, DiscardingAllNoiseIsAnError)
{
    // Two custom functions cannot reach minPts = 3, so both are DBSCAN
    // noise. Discarding noise leaves no class to average over: a typed
    // error, not an empty ranking with a NaN average.
    BehaviorRepr repr;
    Bfv small;
    small.numBlocks = 1;
    small.numCallers = 1;
    Bfv large;
    large.numBlocks = 9;
    large.numCallers = 4;
    large.numLibCalls = 3;
    addFunction(repr, small, true, false);
    addFunction(repr, large, true, false);
    addFunction(repr, anchorBfv(), false, true);

    ASSERT_TRUE(inferIts(repr).ok());

    InferConfig drop;
    drop.noiseAsSingletons = false;
    const auto dropped = inferIts(repr, drop);
    EXPECT_FALSE(dropped.ok());
    EXPECT_EQ(dropped.error,
              "no behavior classes after dropping DBSCAN noise");
    EXPECT_TRUE(dropped.ranking.empty());
    EXPECT_EQ(dropped.numClusters, 0u);
}

} // namespace
} // namespace fits::core
