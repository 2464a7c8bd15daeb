/** @file Unit tests for the support utilities (RNG, strings, Result). */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "support/result.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace fits::support {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformIntCoversFullRange)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRealRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal(2.0, 4.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 4.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, IndexInBounds)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.index(13), 13u);
}

TEST(Rng, PickReturnsElement)
{
    Rng rng(29);
    const std::vector<int> items = {10, 20, 30};
    for (int i = 0; i < 100; ++i) {
        const int v = rng.pick(items);
        EXPECT_TRUE(v == 10 || v == 20 || v == 30);
    }
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(31);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = items;
    rng.shuffle(items);
    std::sort(items.begin(), items.end());
    EXPECT_EQ(items, sorted);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(5);
    Rng child = a.fork();
    // The child should not replay the parent's stream.
    Rng b(5);
    b.fork();
    EXPECT_NE(child.next(), b.next() + 1); // sanity: streams differ
    // Determinism of forks from equal parents:
    Rng p1(77), p2(77);
    Rng c1 = p1.fork(), c2 = p2.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(c1.next(), c2.next());
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"a"}, ", "), "a");
    EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Strings, Split)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split(",x,", ','),
              (std::vector<std::string>{"", "x", ""}));
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("firmware.bin", "firm"));
    EXPECT_FALSE(startsWith("firm", "firmware"));
    EXPECT_TRUE(endsWith("lib/libc.so", "libc.so"));
    EXPECT_FALSE(endsWith(".so", "libc.so"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_TRUE(endsWith("x", ""));
}

TEST(Strings, ToLower)
{
    EXPECT_EQ(toLower("HeLLo-123"), "hello-123");
}

TEST(Strings, Hex)
{
    EXPECT_EQ(hex(0), "0x0");
    EXPECT_EQ(hex(0x19090), "0x19090");
    EXPECT_EQ(hex(0xdeadbeef), "0xdeadbeef");
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%05.1f", 3.25), "003.2");
    EXPECT_EQ(format("empty"), "empty");
}

TEST(Strings, Fnv1aStableAndDistinct)
{
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
    EXPECT_NE(fnv1a(""), fnv1a(std::string_view("\0", 1)));
}

// hash64 checksums every disk-cache entry, so its values are part of
// the on-disk format: these pins are published XXH64 (seed 0) values.
TEST(Hash64, MatchesPublishedXxh64Values)
{
    EXPECT_EQ(hash64(""), 0xef46db3751d8e999ULL);
    EXPECT_EQ(hash64("a"), 0xd24ec4f1a98c6e5bULL);
    EXPECT_EQ(hash64("abc"), 0x44bc2cf5ad770999ULL);
    // 39 bytes: one 32-byte stripe, then the 4- and 1-byte tails.
    EXPECT_EQ(hash64("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ULL);
}

TEST(Hash64, LengthSweepCoversStripeAndEveryTail)
{
    // Prefixes of one 67-byte buffer: lengths 0-67 cross zero, one and
    // two 32-byte stripes, each with every mix of 8-, 4- and 1-byte
    // tails. Values from an independent XXH64 transcription.
    constexpr std::uint64_t kExpected[68] = {
        0xef46db3751d8e999ULL, 0xa96c7f0ce858bbb7ULL, 0xc22c6a70ad56bba6ULL,
        0xbed43740ee6332bbULL, 0xfa212ae44b3bb23dULL, 0xd339dcc9ac8e6776ULL,
        0x71cabdc85da7ffa0ULL, 0x2744460dd675d2c0ULL, 0x994b676b71ce94ddULL,
        0x572b84c18b983af8ULL, 0x08283fd40ee4f8c9ULL, 0x97f078da7a1a590cULL,
        0xb92f588ce720786eULL, 0xdadc8a6255b4829bULL, 0x574269377227d80aULL,
        0x09e6451ed2ff8b1dULL, 0x94ad0095e72b24d5ULL, 0x1464f2eff23b5fe1ULL,
        0x712c39f6d1ed935eULL, 0x83ef9c758393e89dULL, 0x67822fa80e0c8933ULL,
        0xfa6de19e99ff8d43ULL, 0xa8d0ae04d79885f2ULL, 0xcf65b69586b05fabULL,
        0x0a3b0194f3afe0b8ULL, 0xe0fd072fff811c86ULL, 0xc4f7372a7fb8f247ULL,
        0xfee26cac05aeecf0ULL, 0x01a6f3d224fa7d3bULL, 0x161a3bc98afcf092ULL,
        0x3f8796d7bfaaaa08ULL, 0x6711d55e306b5d8fULL, 0x07f7b8e3bc5d6e25ULL,
        0x09f85eeb4e1cbe9fULL, 0x35284e7f91dd1ae5ULL, 0x25cc31e4544bc8c9ULL,
        0xe7ac625222f2b655ULL, 0x1d8c3a2215085739ULL, 0x1fb3064ed36c675fULL,
        0xb13c137a0fb701c3ULL, 0xd25150177ba46490ULL, 0x3ad8bb2779d9285eULL,
        0xfe4ddab6e3d75ddcULL, 0x9d340603aa03cc62ULL, 0xd02b2028c27a5329ULL,
        0xff59426b0066066bULL, 0x713a114207f600e2ULL, 0x79bd9d6dd8c15570ULL,
        0x2947de5e3a6afeceULL, 0x43f1e784039912d3ULL, 0x072fa9968401e9c7ULL,
        0xc3c4ff0d8f66e206ULL, 0x0efbc3939fa05814ULL, 0x42be842d0902d7a7ULL,
        0x8a78b907c424dc46ULL, 0x8f8dc5b07f6d48edULL, 0xa2acf5b431db2e52ULL,
        0x403200f5d0354116ULL, 0xc326a3d65678339bULL, 0xa53b8e5bc9ff65a4ULL,
        0x4cce586d8aca19e5ULL, 0xbd3bd33486af6dc6ULL, 0x4149dd403b20a2dcULL,
        0xb7c9968c066cb6a5ULL, 0x50d4159a0411632eULL, 0xd277176bff863efcULL,
        0x578ba93daaaa4333ULL, 0x5c44ab49f377e73fULL,
    };
    std::string buffer(67, '\0');
    for (std::size_t i = 0; i < buffer.size(); ++i)
        buffer[i] = static_cast<char>((i * 131 + 7) & 0xff);
    for (std::size_t n = 0; n <= buffer.size(); ++n) {
        EXPECT_EQ(hash64(std::string_view(buffer).substr(0, n)),
                  kExpected[n])
            << "length " << n;
    }
}

TEST(Hash64, SeededMebibyte)
{
    Rng rng(0x5eed);
    std::string buffer(1 << 20, '\0');
    for (std::size_t i = 0; i < buffer.size(); i += 8) {
        const std::uint64_t word = rng.next();
        for (std::size_t b = 0; b < 8; ++b)
            buffer[i + b] = static_cast<char>((word >> (8 * b)) & 0xff);
    }
    EXPECT_EQ(hash64(buffer), 0x8179aab1c30671ccULL);
    // Any single flipped bit changes it.
    buffer[buffer.size() / 2] ^= 0x10;
    EXPECT_NE(hash64(buffer), 0x8179aab1c30671ccULL);
}

TEST(Result, OkCarriesValue)
{
    auto r = Result<int>::ok(42);
    ASSERT_TRUE(r.hasValue());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
    EXPECT_TRUE(r.errorMessage().empty());
}

TEST(Result, ErrorCarriesMessage)
{
    auto r = Result<int>::error("boom");
    EXPECT_FALSE(r.hasValue());
    EXPECT_EQ(r.errorMessage(), "boom");
}

TEST(Result, TakeMovesValue)
{
    auto r = Result<std::string>::ok("payload");
    const std::string v = r.take();
    EXPECT_EQ(v, "payload");
}

} // namespace
} // namespace fits::support
