/**
 * @file
 * Portable binary archive for snapshots and replay journals.
 *
 * The checkpoint/record-replay subsystem needs a serialization layer
 * with two properties the usual text formats lack:
 *
 *   - **bit-exactness**: doubles are stored as their IEEE-754 bit
 *     pattern, so a value that survives a snapshot→restore→snapshot
 *     round trip is *identical*, not merely close; and
 *   - **canonical bytes**: the same logical state always produces the
 *     same byte sequence (fixed little-endian widths, no padding, no
 *     pointer-dependent ordering), so state equality can be decided by
 *     comparing bytes or 64-bit digests.
 *
 * `Archive` is the write side: an append-only byte sink whose FNV-1a
 * digest is computed on demand, so only the callers that read it
 * (journal and checkpoint trailers) pay a pass over the bytes.
 * `ArchiveReader` is the read side; it throws `std::runtime_error` on
 * truncated input rather than returning garbage, because a corrupt
 * journal must fail loudly.
 *
 * Layer note: this header lives in common/ so every layer (sim, rpc,
 * power, server, workload, core, fleet, telemetry) can implement a
 * `Snapshot(Archive&)` visitor without depending on src/replay.
 */
#ifndef DYNAMO_COMMON_ARCHIVE_H_
#define DYNAMO_COMMON_ARCHIVE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace dynamo {

/** FNV-1a 64-bit offset basis / prime (stable across platforms). */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** FNV-1a over a byte string; used for stable name→seed derivation. */
constexpr std::uint64_t Fnv1a64(std::string_view bytes)
{
    std::uint64_t h = kFnvOffset;
    for (const char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= kFnvPrime;
    }
    return h;
}

/**
 * Order-sensitive 64-bit rolling hash (FNV-1a over u64 words). Used
 * for per-cycle event/RPC digests where keeping the full stream would
 * dwarf the journal.
 */
class HashAccumulator
{
  public:
    void Mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= kFnvPrime;
        }
    }

    std::uint64_t value() const { return h_; }

    void Reset() { h_ = kFnvOffset; }

  private:
    std::uint64_t h_ = kFnvOffset;
};

/** Append-only little-endian byte sink. */
class Archive
{
  public:
    Archive() = default;

    void U8(std::uint8_t v) { Put(&v, 1); }

    void U32(std::uint32_t v)
    {
        std::uint8_t b[4];
        for (int i = 0; i < 4; ++i) b[i] = (v >> (8 * i)) & 0xffu;
        Put(b, sizeof b);
    }

    void U64(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i) b[i] = (v >> (8 * i)) & 0xffu;
        Put(b, sizeof b);
    }

    void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }

    void Bool(bool v) { U8(v ? 1 : 0); }

    /** IEEE-754 bit pattern; bit-exact round trip by construction. */
    void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

    /** Length-prefixed byte string. */
    void Str(std::string_view s)
    {
        U64(s.size());
        Put(s.data(), s.size());
    }

    /**
     * Append another archive's bytes verbatim (no length prefix). The
     * result — bytes and digest — is identical to having written
     * `other`'s fields into this archive directly, which is what lets
     * per-shard snapshot archives be filled in parallel and then
     * merged in canonical shard order without changing the output.
     */
    void Append(const Archive& other) { bytes_ += other.bytes_; }

    const std::string& bytes() const { return bytes_; }

    /** Move the bytes out, leaving the archive empty. */
    std::string TakeBytes()
    {
        std::string bytes = std::move(bytes_);
        bytes_.clear();
        return bytes;
    }

    /** FNV-1a digest of everything appended so far (one pass over the
     *  bytes per call). */
    std::uint64_t digest() const { return Fnv1a64(bytes_); }

    std::size_t size() const { return bytes_.size(); }

  private:
    void Put(const void* data, std::size_t n)
    {
        bytes_.append(static_cast<const char*>(data), n);
    }

    std::string bytes_;
};

// The reader loads each word with one memcpy, which yields the
// little-endian value the archive holds only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "ArchiveReader and the wire codec load little-endian words");

/** The `T` stored at `p` in the host's byte order, unaligned. */
template <class T>
T
LoadWord(const char* p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * Reader over Archive bytes; throws std::runtime_error on truncation.
 * Every length check compares the request with the bytes left, never
 * `pos + n` with the size, so no length prefix can wrap it.
 */
class ArchiveReader
{
  public:
    explicit ArchiveReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t U8()
    {
        Need(1);
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    std::uint32_t U32() { return Word<std::uint32_t>(); }

    std::uint64_t U64() { return Word<std::uint64_t>(); }

    std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

    bool Bool() { return U8() != 0; }

    double F64() { return std::bit_cast<double>(U64()); }

    std::string Str() { return std::string(StrView()); }

    /** Length-prefixed byte string, as a view into the input. */
    std::string_view StrView() { return View(U64()); }

    /** The next `n` bytes, as a view into the input: one bounds check
     *  for a run of fields that are then read from the view. */
    std::string_view View(std::uint64_t n)
    {
        Need(n);
        const std::string_view s = bytes_.substr(pos_, n);
        pos_ += n;
        return s;
    }

    bool AtEnd() const { return pos_ == bytes_.size(); }

    std::size_t pos() const { return pos_; }

    /** Bytes left to read; lets decoders sanity-check element counts
     *  against the physical input before reserving memory for them. */
    std::size_t remaining() const { return bytes_.size() - pos_; }

  private:
    template <class T>
    T Word()
    {
        Need(sizeof(T));
        const T v = LoadWord<T>(bytes_.data() + pos_);
        pos_ += sizeof(T);
        return v;
    }

    void Need(std::uint64_t n) const
    {
        if (n > remaining()) {
            throw std::runtime_error("archive truncated: need " +
                                     std::to_string(n) + " bytes at offset " +
                                     std::to_string(pos_));
        }
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

}  // namespace dynamo

#endif  // DYNAMO_COMMON_ARCHIVE_H_
