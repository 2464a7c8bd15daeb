#ifndef FITS_ANALYSIS_SCRATCH_HH_
#define FITS_ANALYSIS_SCRATCH_HH_

#include <cstddef>
#include <vector>

namespace fits::analysis {

/**
 * The per-function passes keep their temporaries in per-thread buffers
 * reused across functions. A buffer that one large function grew past
 * this size is released once that function is done, so a worker does
 * not hold a rare function's peak for the rest of the process.
 */
inline constexpr std::size_t kScratchKeepBytes = 4 * 1024;

/** Release each buffer whose capacity exceeds kScratchKeepBytes. */
template <typename... T>
void
trimScratch(std::vector<T> &...buffers)
{
    const auto trim = [](auto &buffer) {
        using Buffer = std::remove_reference_t<decltype(buffer)>;
        if (buffer.capacity() * sizeof(typename Buffer::value_type) >
            kScratchKeepBytes) {
            Buffer().swap(buffer);
        }
    };
    (trim(buffers), ...);
}

} // namespace fits::analysis

#endif // FITS_ANALYSIS_SCRATCH_HH_
