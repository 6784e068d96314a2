// Unit tests for the two 64-bit hashes: XXH64 (common/xxh64.h), which
// seals DYNW frames, checked against the reference library's answers;
// and FNV-1a (common/archive.h), whose values are recorded in journals,
// checkpoints and seeds and so must never move.
#include "common/xxh64.h"

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "common/archive.h"

namespace dynamo {
namespace {

/** Bytes 0, 1, ..., n-1. */
std::string Counting(std::size_t n)
{
    std::string bytes;
    for (std::size_t i = 0; i < n; ++i) bytes.push_back(static_cast<char>(i));
    return bytes;
}

// The reference library's digest is usable at compile time too.
static_assert(Xxh64("") == 0xEF46DB3751D8E999ULL);

TEST(Xxh64, MatchesTheReferenceLibrary)
{
    // XXH64 with seed 0, as the xxHash library computes it. The
    // lengths reach every path: the tail bytes alone, a 4-byte word,
    // 8-byte words, exactly one 32-byte stripe, a stripe plus one
    // byte, and several stripes with every kind of tail.
    EXPECT_EQ(Xxh64(""), 0xEF46DB3751D8E999ULL);
    EXPECT_EQ(Xxh64("a"), 0xD24EC4F1A98C6E5BULL);
    EXPECT_EQ(Xxh64("abc"), 0x44BC2CF5AD770999ULL);
    EXPECT_EQ(Xxh64("123456789"), 0x8CB841DB40E6AE83ULL);
    EXPECT_EQ(Xxh64(Counting(32)), 0xCBF59C5116FF32B4ULL);
    EXPECT_EQ(Xxh64(Counting(33)), 0x0C535D1ACAFB8EADULL);
    EXPECT_EQ(Xxh64(Counting(150)), 0x68FCD70F0703FE00ULL);
}

TEST(Xxh64, DependsOnlyOnTheBytesNotTheirAddress)
{
    // A frame sits at any offset in a connection's buffer.
    const std::string bytes = Counting(150);
    const std::uint64_t digest = Xxh64(bytes);
    for (std::size_t shift = 1; shift < 8; ++shift) {
        const std::string padded = std::string(shift, '\xff') + bytes;
        EXPECT_EQ(Xxh64(std::string_view(padded).substr(shift)), digest)
            << "shift " << shift;
    }
}

TEST(Fnv1a64, RecordedValuesStayPut)
{
    EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
    // A journal or checkpoint trailer: the archive's FNV-1a digest.
    Archive ar;
    ar.Str("foobar");
    EXPECT_EQ(ar.digest(), 0xb277229a2d9d19f2ULL);
}

}  // namespace
}  // namespace dynamo
