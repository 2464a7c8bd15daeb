/** @file Inputs and comparisons shared by the taint-engine oracle
 * tests: the ITS sets the corpus evaluation uses, seeded synthetic
 * sample specs, and a field-by-field alert comparison. */

#ifndef FITS_TESTS_TAINT_SAMPLES_HH_
#define FITS_TESTS_TAINT_SAMPLES_HH_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "binary/image.hh"
#include "core/pipeline.hh"
#include "ir/builder.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "synth/profiles.hh"
#include "taint/common.hh"

namespace fits::testing_taint {

/** `sources` followed by one ITS per entry. */
inline std::vector<taint::TaintSource>
withIts(std::vector<taint::TaintSource> sources,
        const std::vector<ir::Addr> &itsEntries)
{
    for (ir::Addr entry : itsEntries)
        sources.push_back(
            taint::TaintSource::its(entry, support::hex(entry)));
    return sources;
}

/** The ITS set the corpus evaluation uses: the top-3 ranked functions
 * that ground truth confirms. */
inline std::vector<ir::Addr>
verifiedIts(const core::PipelineArtifact &artifact,
            const synth::GroundTruth &truth)
{
    std::vector<ir::Addr> its;
    const auto &ranking = artifact.inference.ranking;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, ranking.size());
         ++i) {
        const ir::Addr entry = ranking[i].entry;
        if (std::find(truth.itsFunctions.begin(), truth.itsFunctions.end(),
                      entry) != truth.itsFunctions.end())
            its.push_back(entry);
    }
    return its;
}

/** A 100-160 custom-function sample of one of the five vendor
 * profiles, drawn from `seed`. */
inline synth::SampleSpec
seededSpec(std::uint64_t seed)
{
    const synth::VendorProfile profiles[] = {
        synth::netgearProfile(), synth::dlinkProfile(),
        synth::tplinkProfile(), synth::tendaProfile(),
        synth::ciscoProfile()};
    synth::SampleSpec spec;
    spec.profile = profiles[seed % 5];
    spec.profile.minCustomFns = 100;
    spec.profile.maxCustomFns = 160;
    spec.product = spec.profile.series.front();
    spec.version = "V1";
    spec.name = spec.product + "-V1";
    spec.seed = 0x57a0000ULL + seed * 0x9e3779b9ULL;
    return spec;
}

/** Every field of every alert, in report order. */
inline void
expectSameAlerts(const std::vector<taint::Alert> &got,
                 const std::vector<taint::Alert> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const taint::Alert &g = got[i];
        const taint::Alert &w = want[i];
        SCOPED_TRACE("alert " + std::to_string(i) + " at " +
                     support::hex(w.sinkSite));
        EXPECT_EQ(g.sinkSite, w.sinkSite);
        EXPECT_EQ(g.sinkName, w.sinkName);
        EXPECT_EQ(g.vclass, w.vclass);
        EXPECT_EQ(g.labelMask, w.labelMask);
        EXPECT_EQ(g.hasUserDataLabel, w.hasUserDataLabel);
        EXPECT_EQ(g.inFunction, w.inFunction);
        EXPECT_EQ(g.imageIndex, w.imageIndex);
    }
}

/**
 * A main binary linked against a one-function libc.so that implements
 * strcpy, so the call resolves to a library function and both engines
 * model it as a memory writer:
 *   recv(0, kBuf, 64); strcpy(kOut, *(kBuf+4)); system(*kOut)
 * The system call alerts only through the taint strcpy writes into
 * kOut.
 */
struct MemoryWriterProgram
{
    bin::BinaryImage main;
    std::vector<bin::BinaryImage> libraries;
    ir::Addr systemSink = 0;

    MemoryWriterProgram()
    {
        constexpr ir::Addr kBuf = bin::kBssBase;
        constexpr ir::Addr kOut = bin::kBssBase + 0x200;
        using ir::Operand;

        bin::BinaryImage libc;
        libc.name = "libc.so";
        ir::FunctionBuilder impl("strcpy");
        impl.ret();
        libc.program.addFunction(impl.build(bin::kTextBase));
        libraries.push_back(std::move(libc));

        main.name = "httpd";
        const auto recvPlt = main.addImport("recv", "libc.so");
        const auto strcpyPlt = main.addImport("strcpy", "libc.so");
        const auto systemPlt = main.addImport("system", "libc.so");
        ir::FunctionBuilder b;
        b.setArg(0, Operand::ofImm(0));
        b.setArg(1, Operand::ofImm(kBuf));
        b.setArg(2, Operand::ofImm(64));
        b.call(recvPlt);
        const auto v = b.load(Operand::ofImm(kBuf + 4));
        b.setArg(0, Operand::ofImm(kOut));
        b.setArg(1, Operand::ofTmp(v));
        b.call(strcpyPlt);
        b.setArg(0, Operand::ofTmp(b.load(Operand::ofImm(kOut))));
        const auto blk = b.currentBlock();
        const auto idx = b.nextStmtIndex();
        b.call(systemPlt);
        b.ret();
        ir::Function fn = b.build(bin::kTextBase);
        systemSink = fn.blocks[blk].stmtAddr(idx);
        main.program.addFunction(std::move(fn));
    }
};

} // namespace fits::testing_taint

#endif // FITS_TESTS_TAINT_SAMPLES_HH_
