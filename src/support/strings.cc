#include "strings.hh"

#include <bit>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace fits::support {

std::string
join(const std::vector<std::string> &items, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out.append(sep);
        out.append(items[i]);
    }
    return out;
}

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (auto &c : out) {
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    }
    return out;
}

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args);
        out.resize(static_cast<std::size_t>(needed));
    }
    va_end(args);
    return out;
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    return fnv1a(std::string_view(
        reinterpret_cast<const char *>(data), size));
}

namespace {

constexpr std::uint64_t kXxPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kXxPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kXxPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kXxPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kXxPrime5 = 0x27d4eb2f165667c5ULL;

/** Little-endian load, whatever the host byte order. */
template <typename T>
T
loadLe(const char *p)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(v));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<unsigned char>(p[i]))
                 << (8 * i);
    }
    return v;
}

std::uint64_t
xxRound(std::uint64_t acc, std::uint64_t lane)
{
    acc += lane * kXxPrime2;
    acc = std::rotl(acc, 31);
    return acc * kXxPrime1;
}

std::uint64_t
xxMerge(std::uint64_t h, std::uint64_t acc)
{
    h ^= xxRound(0, acc);
    return h * kXxPrime1 + kXxPrime4;
}

} // namespace

std::uint64_t
hash64(std::string_view bytes)
{
    const char *p = bytes.data();
    const std::size_t size = bytes.size();
    const char *const end = p + size;

    std::uint64_t h;
    if (size >= 32) {
        std::uint64_t v1 = kXxPrime1 + kXxPrime2;
        std::uint64_t v2 = kXxPrime2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kXxPrime1;
        for (const char *limit = end - 32; p <= limit; p += 32) {
            v1 = xxRound(v1, loadLe<std::uint64_t>(p));
            v2 = xxRound(v2, loadLe<std::uint64_t>(p + 8));
            v3 = xxRound(v3, loadLe<std::uint64_t>(p + 16));
            v4 = xxRound(v4, loadLe<std::uint64_t>(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxMerge(h, v1);
        h = xxMerge(h, v2);
        h = xxMerge(h, v3);
        h = xxMerge(h, v4);
    } else {
        h = kXxPrime5;
    }
    h += size;

    for (; end - p >= 8; p += 8) {
        h ^= xxRound(0, loadLe<std::uint64_t>(p));
        h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    }
    if (end - p >= 4) {
        h ^= loadLe<std::uint32_t>(p) * kXxPrime1;
        h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= static_cast<unsigned char>(*p) * kXxPrime5;
        h = std::rotl(h, 11) * kXxPrime1;
    }

    h ^= h >> 33;
    h *= kXxPrime2;
    h ^= h >> 29;
    h *= kXxPrime3;
    h ^= h >> 32;
    return h;
}

} // namespace fits::support
