#ifndef FITS_SUPPORT_STRINGS_HH_
#define FITS_SUPPORT_STRINGS_HH_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fits::support {

/** Join the items with the separator ("a, b, c"). */
std::string join(const std::vector<std::string> &items,
                 std::string_view sep);

/** Split on a single-character separator; keeps empty fields. */
std::vector<std::string> split(std::string_view text, char sep);

/** True if text starts with prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if text ends with suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case a copy (ASCII only). */
std::string toLower(std::string_view text);

/** "0x%x" rendering of an address. */
std::string hex(std::uint64_t value);

/** printf-style helper returning std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** FNV-1a 64-bit hash of a byte string; stable across platforms. */
std::uint64_t fnv1a(std::string_view bytes);

/** FNV-1a 64-bit hash of a raw byte buffer (same stream as above). */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size);

/**
 * XXH64 of a byte string at seed 0; stable across platforms. Four
 * independent 8-byte lanes per 32-byte stripe make it several times
 * faster than the byte-serial FNV-1a on large buffers, which is why
 * checksums of large payloads use it. On-disk values depend on it, so
 * its output must never change.
 */
std::uint64_t hash64(std::string_view bytes);

} // namespace fits::support

#endif // FITS_SUPPORT_STRINGS_HH_
