/**
 * @file
 * Security audit scenario: take one firmware image, infer intermediate
 * taint sources with FITS, then run all four taint-analysis
 * configurations (Karonte / Karonte-ITS / STA / STA-ITS) and print a
 * vulnerability report — what a third-party analyst would do with a
 * vendor image and this library.
 */

#include <algorithm>
#include <cstdio>

#include "core/pipeline.hh"
#include "support/strings.hh"
#include "synth/firmware_gen.hh"
#include "taint/karonte.hh"
#include "taint/sta.hh"

namespace {

using namespace fits;

void
printReport(const char *engine, const std::vector<taint::Alert> &alerts,
            const synth::GroundTruth &truth)
{
    std::size_t bugs = 0;
    for (const auto &alert : alerts) {
        const synth::SinkSite *site = truth.siteAt(alert.sinkSite);
        if (site != nullptr && site->isBug())
            ++bugs;
    }
    std::printf("%-12s %3zu alerts, %3zu verified bugs\n", engine,
                alerts.size(), bugs);
    for (const auto &alert : alerts) {
        const synth::SinkSite *site = truth.siteAt(alert.sinkSite);
        const bool isBug = site != nullptr && site->isBug();
        std::printf("    %s at %s in fn %s  [%s]%s\n",
                    alert.sinkName.c_str(),
                    support::hex(alert.sinkSite).c_str(),
                    support::hex(alert.inFunction).c_str(),
                    taint::vulnClassName(alert.vclass),
                    isBug ? "  <-- confirmed" : "");
        if (alerts.size() > 12 && &alert - alerts.data() >= 11) {
            std::printf("    ... (%zu more)\n",
                        alerts.size() - 12);
            break;
        }
    }
}

} // namespace

int
main()
{
    // A vendor ships an image; we only have the bytes.
    synth::SampleSpec spec;
    spec.profile = synth::ciscoProfile();
    spec.product = "RV130X";
    spec.version = "V1.0.3.55";
    spec.name = spec.product + "-" + spec.version;
    spec.seed = 0xc15c0;
    const synth::GeneratedFirmware firmware =
        synth::generateFirmware(spec);

    std::printf("=== auditing %s %s (%zu bytes) ===\n\n",
                spec.profile.vendor.c_str(), spec.name.c_str(),
                firmware.bytes.size());

    // Stages 1-3: unpack, pick the network-facing binary, analyze it
    // once, and rank ITS candidates on that analysis.
    const core::FitsPipeline pipeline;
    const auto artifact = pipeline.analyze(firmware.bytes);
    if (!artifact.hasAnalysis()) {
        const bool unpack = artifact.failureStage ==
                            core::PipelineArtifact::FailureStage::Unpack;
        std::printf("%s failed: %s\n", unpack ? "unpack" : "selection",
                    artifact.error.c_str());
        return 1;
    }
    std::printf("network binary: %s (%zu functions), libraries: %zu\n",
                artifact.binaryName.c_str(), artifact.numFunctions,
                artifact.target->libraries.size());
    if (!artifact.ok) {
        std::printf("inference failed: %s\n", artifact.error.c_str());
        return 1;
    }
    const analysis::ProgramAnalysis &pa = *artifact.analysis;
    const auto &inference = artifact.inference;

    std::printf("\nITS candidates (top 3):\n");
    std::vector<taint::TaintSource> its;
    for (std::size_t i = 0;
         i < 3 && i < inference.ranking.size(); ++i) {
        const auto &rf = inference.ranking[i];
        const bool verified =
            std::find(firmware.truth.itsFunctions.begin(),
                      firmware.truth.itsFunctions.end(),
                      rf.entry) != firmware.truth.itsFunctions.end();
        std::printf("  #%zu %s score %.4f — %s\n", i + 1,
                    support::hex(rf.entry).c_str(), rf.score,
                    verified ? "verified as ITS (taint origin: "
                               "return register)"
                             : "rejected during verification");
        if (verified) {
            its.push_back(taint::TaintSource::its(
                rf.entry, support::hex(rf.entry)));
        }
    }

    // Stage 4: taint analysis, CTS-only vs CTS+ITS.
    const auto cts = taint::classicalTaintSources();
    auto withIts = cts;
    withIts.insert(withIts.end(), its.begin(), its.end());

    std::printf("\n--- taint analysis ---\n");
    const taint::KaronteEngine karonte;
    const taint::StaEngine sta;
    printReport("Karonte", karonte.run(pa, cts).alerts,
                firmware.truth);
    printReport("Karonte-ITS",
                karonte.run(pa, withIts).filteredAlerts(),
                firmware.truth);
    printReport("STA", sta.run(pa, cts).alerts, firmware.truth);
    printReport("STA-ITS", sta.run(pa, withIts).filteredAlerts(),
                firmware.truth);

    std::printf("\nground truth: %zu planted bugs across %zu sink "
                "sites\n",
                firmware.truth.bugCount(),
                firmware.truth.sinkSites.size());
    return 0;
}
