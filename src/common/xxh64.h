/**
 * @file
 * XXH64 (seed 0): the digest that seals every DYNW frame.
 *
 * FNV-1a (archive.h) consumes one byte per dependent multiply, about
 * four cycles a byte. XXH64 consumes 8-byte words in four independent
 * lanes, so the multiplies of one 32-byte stripe overlap. It is the
 * public algorithm of the xxHash library with seed 0, so a peer can
 * check a frame with a stock library. Words are read little-endian
 * byte by byte, as ArchiveReader reads them, so every host computes
 * the same digest; compilers fold the byte loads into one word load.
 *
 * Persisted digests and RNG seeds (journals, checkpoints, shard seeds)
 * stay FNV-1a: their values are part of recorded files.
 */
#ifndef DYNAMO_COMMON_XXH64_H_
#define DYNAMO_COMMON_XXH64_H_

#include <bit>
#include <cstdint>
#include <string_view>

namespace dynamo {

namespace xxh64_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint32_t Byte(char c) { return static_cast<std::uint8_t>(c); }

/** The 4 bytes at `p` as a little-endian integer. */
constexpr std::uint32_t Le32(const char* p)
{
    return Byte(p[0]) | Byte(p[1]) << 8 | Byte(p[2]) << 16 | Byte(p[3]) << 24;
}

/** The 8 bytes at `p` as a little-endian integer. */
constexpr std::uint64_t Le64(const char* p)
{
    return Le32(p) | std::uint64_t{Le32(p + 4)} << 32;
}

/** Fold one 8-byte word into a lane. */
constexpr std::uint64_t Round(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/** Fold a finished lane into the hash. */
constexpr std::uint64_t MergeLane(std::uint64_t h, std::uint64_t lane)
{
    return (h ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/** XXH64 of `bytes` with seed 0. */
constexpr std::uint64_t Xxh64(std::string_view bytes)
{
    using namespace xxh64_detail;
    const char* p = bytes.data();
    const char* const end = p + bytes.size();
    std::uint64_t h = kPrime5;
    if (bytes.size() >= 32) {
        std::uint64_t v1 = kPrime1 + kPrime2;
        std::uint64_t v2 = kPrime2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kPrime1;
        for (; end - p >= 32; p += 32) {
            v1 = Round(v1, Le64(p));
            v2 = Round(v2, Le64(p + 8));
            v3 = Round(v3, Le64(p + 16));
            v4 = Round(v4, Le64(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = MergeLane(MergeLane(MergeLane(MergeLane(h, v1), v2), v3), v4);
    }
    h += bytes.size();
    for (; end - p >= 8; p += 8) {
        h = std::rotl(h ^ Round(0, Le64(p)), 27) * kPrime1 + kPrime4;
    }
    if (end - p >= 4) {
        const std::uint64_t word = Le32(p);
        h = std::rotl(h ^ (word * kPrime1), 23) * kPrime2 + kPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        const std::uint64_t byte = Byte(*p);
        h = std::rotl(h ^ (byte * kPrime5), 11) * kPrime1;
    }
    h = (h ^ (h >> 33)) * kPrime2;
    h = (h ^ (h >> 29)) * kPrime3;
    return h ^ (h >> 32);
}

}  // namespace dynamo

#endif  // DYNAMO_COMMON_XXH64_H_
