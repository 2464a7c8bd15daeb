#include "select.hh"

#include <optional>

#include "binary/fbin.hh"
#include "cache/cache.hh"
#include "chaos/chaos.hh"
#include "support/logging.hh"
#include "support/status.hh"

namespace fits::fw {

const std::vector<std::string> &
networkImportNames()
{
    static const std::vector<std::string> names = {
        "socket", "bind", "listen", "accept", "recv", "recvfrom",
        "recvmsg", "send", "sendto", "select", "inet_ntoa", "htons",
        "setsockopt",
    };
    return names;
}

namespace {

bool
isReceiveStyle(const std::string &name)
{
    return name == "recv" || name == "recvfrom" || name == "recvmsg" ||
           name == "accept";
}

} // namespace

int
networkScore(const bin::BinaryImage &image)
{
    int score = 0;
    for (const auto &name : networkImportNames()) {
        if (image.importByName(name) != nullptr)
            score += isReceiveStyle(name) ? 2 : 1;
    }
    return score;
}

support::Result<AnalysisTarget>
selectAnalysisTarget(const Filesystem &filesystem)
{
    using R = support::Result<AnalysisTarget>;
    using support::ErrorCode;
    using support::Stage;
    using support::Status;

    if (chaos::shouldInject("select.binary"))
        return R::error(chaos::injectedStatus("select.binary"));

    bool anyParsed = false;
    int bestScore = 0;
    std::optional<bin::BinaryImage> best;

    // Executables are lifted directly: each sample's main binary is its
    // own, so only the dependency libraries below go through the
    // cache's library tier.
    for (const FileEntry *entry :
         filesystem.filesOfType(FileType::Executable)) {
        auto loaded = bin::loadBinary(entry->bytes);
        if (!loaded) {
            support::logWarn("select", entry->path + ": " +
                                           loaded.errorMessage());
            continue;
        }
        anyParsed = true;
        const int score = networkScore(loaded.value());
        if (score > bestScore) {
            bestScore = score;
            best = loaded.take();
        }
    }

    if (!anyParsed) {
        return R::error(Status::error(
            Stage::Select, ErrorCode::NotFound,
            "no executable in the file system parses as FBIN"));
    }
    if (bestScore == 0) {
        return R::error(Status::error(
            Stage::Select, ErrorCode::NotFound,
            "no executable imports the network interface"));
    }

    AnalysisTarget target;
    target.main = std::make_shared<const bin::BinaryImage>(
        std::move(*best));

    for (const auto &dep : target.main->neededLibraries) {
        // A library that fails to lift is a *degradation*, not a
        // failure: analysis proceeds against the main binary (and any
        // libraries that did load) and the target records what is
        // missing so the pipeline can flag the sample as partial.
        if (chaos::shouldInject("select.library")) {
            target.missingLibraries.push_back(dep);
            continue;
        }
        const FileEntry *libEntry = filesystem.findByBasename(dep);
        if (!libEntry) {
            target.missingLibraries.push_back(dep);
            continue;
        }
        auto lib = cache::loadLibrary(libEntry->bytes);
        if (!lib) {
            target.missingLibraries.push_back(dep);
            support::logWarn("select",
                             dep + ": " + lib.errorMessage());
            continue;
        }
        target.libraries.push_back(lib.take());
    }

    return R::ok(std::move(target));
}

} // namespace fits::fw
