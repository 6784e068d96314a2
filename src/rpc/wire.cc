#include "rpc/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/archive.h"
#include "common/xxh64.h"
#include "core/api.h"

namespace dynamo::rpc::wire {

namespace {

// --- field types -----------------------------------------------------------
//
// Integers are little-endian words, doubles their IEEE-754 bit
// pattern, bools and enums one byte, and an optional watt value a
// presence byte followed by the value (0 when absent), so every field
// type has one width whatever its value.

template <class T>
constexpr std::size_t kWidth = std::is_enum_v<T> ? 1 : sizeof(T);

template <>
constexpr std::size_t kWidth<std::optional<Watts>> = 1 + sizeof(Watts);

static_assert(sizeof(bool) == 1 && sizeof(Watts) == 8);

// --- field lists -----------------------------------------------------------
//
// Each api message's body layout is written down once, as the list of
// its fields over an `Io`: SizeSink adds up their bytes, CursorSink
// writes them and FieldReader reads them back. `M` is the message
// type, const when encoding. Fields whose widths do not depend on
// their values go through `Fixed` together, so the reader checks the
// bounds of the whole run once; a string goes through `Str`, a u64
// length prefix and then its bytes.

template <class Io, class S>
void
StatusFields(Io& io, S& s)
{
    io.Fixed(s.code, s.retriable);
    io.Str(s.detail);
}

template <class Io, class M>
void
Fields(Io& io, M& m)
{
    using T = std::remove_const_t<M>;
    if constexpr (std::is_same_v<T, api::PowerReadResult>) {
        StatusFields(io, m.status);
        io.Str(m.source);
        io.Fixed(m.power, m.estimated, m.service, m.capped, m.power_limit,
                 m.cpu_power, m.memory_power, m.other_power,
                 m.conversion_loss, m.quota, m.floor, m.contract);
    } else if constexpr (std::is_same_v<T, api::CapRequest>) {
        io.Fixed(m.limit);
    } else if constexpr (std::is_same_v<T, api::CapResult> ||
                         std::is_same_v<T, api::HealthResult>) {
        StatusFields(io, m.status);
    } else if constexpr (std::is_same_v<T, api::ContractUpdate>) {
        io.Fixed(m.limit, m.span_id, m.spec_epoch);
    } else if constexpr (std::is_same_v<T, api::TuneEstimate>) {
        io.Fixed(m.reference_ratio);
    } else if constexpr (std::is_same_v<T, api::StatusResult>) {
        StatusFields(io, m.status);
        io.Str(m.endpoint);
        io.Str(m.health);
        io.Fixed(m.cycles, m.caps_adopted, m.contracts_adopted, m.power,
                 m.capping);
    } else {
        // PowerReadRequest, HealthProbe, StatusRequest: empty body.
        static_assert(std::is_empty_v<T>);
    }
}

// --- encode ----------------------------------------------------------------

/** Adds up the bytes of a field list. */
struct SizeSink
{
    std::size_t bytes = 0;

    template <class... T>
    void Fixed(const T&...)
    {
        bytes += (kWidth<T> + ...);
    }

    void Str(std::string_view s) { bytes += 8 + s.size(); }

    /** Bytes with no length prefix (an encoded body inside a frame). */
    void Raw(std::string_view s) { bytes += s.size(); }
};

/** Writes a field list at `at`, into space the caller has sized. */
struct CursorSink
{
    char* at;

    template <class... T>
    void Fixed(const T&... fields)
    {
        (Put(fields), ...);
    }

    void Str(std::string_view s)
    {
        Put(static_cast<std::uint64_t>(s.size()));
        Raw(s);
    }

    void Raw(std::string_view s) { at = std::copy(s.begin(), s.end(), at); }

    template <class T>
    void Put(const T& v)
    {
        if constexpr (std::is_same_v<T, std::optional<Watts>>) {
            Put(v.has_value());
            Put(v.value_or(0.0));
        } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
            *at++ = static_cast<char>(v);
        } else if constexpr (std::is_same_v<T, double>) {
            Put(std::bit_cast<std::uint64_t>(v));
        } else {
            static_assert(std::is_unsigned_v<T>);
            std::memcpy(at, &v, sizeof v);
            at += sizeof v;
        }
    }
};

static_assert(3 * kWidth<std::uint32_t> + kWidth<MessageType> +
                  kWidth<FrameKind> + 2 * kWidth<std::uint64_t> ==
              kFrameFixedHeaderBytes);

/**
 * Append one frame to `out`. `body(io)` walks the body's fields: once
 * to size the frame, so `out` grows once, and once to write them after
 * the header, target and body length; the digest seals the frame.
 * Growing `out` is the only step that can fail, and it leaves `out` as
 * it was, frames queued before included.
 */
template <class Body>
void
PutFrame(std::string& out, FrameKind kind, MessageType type,
         std::uint64_t epoch, std::uint64_t call_id, std::string_view target,
         const Body& body)
{
    SizeSink body_size;
    body(body_size);
    const std::size_t frame_len = kFrameFixedHeaderBytes + 8 + target.size() +
                                  8 + body_size.bytes + 8;
    const std::size_t start = out.size();
    out.resize(start + frame_len);
    char* const frame = out.data() + start;
    CursorSink sink{frame};
    sink.Fixed(kWireMagic, static_cast<std::uint32_t>(frame_len),
               kWireVersion, type, kind, epoch, call_id);
    sink.Str(target);
    sink.Fixed(static_cast<std::uint64_t>(body_size.bytes));
    body(sink);
    // The digest covers everything before it, length field included.
    sink.Fixed(Xxh64(std::string_view(frame, frame_len - 8)));
}

// --- decode ----------------------------------------------------------------

/** The fixed-width reads of ArchiveReader, over a run whose bounds were
 *  checked once. */
class RunReader
{
  public:
    /** `run` starts at byte `pos` of the body (for error offsets). */
    RunReader(std::string_view run, std::size_t pos)
        : at_(run.data()), pos_(pos)
    {
    }

    std::uint8_t U8()
    {
        ++pos_;
        return static_cast<std::uint8_t>(*at_++);
    }

    std::uint64_t U64()
    {
        const auto v = LoadWord<std::uint64_t>(at_);
        at_ += 8;
        pos_ += 8;
        return v;
    }

    std::size_t pos() const { return pos_; }

  private:
    const char* at_;
    std::size_t pos_;
};

/** Read one field from `r`: an ArchiveReader, which checks every read,
 *  or a RunReader. Enum values out of range throw WireError. */
template <class R, class T>
void
Get(R& r, T& v)
{
    if constexpr (std::is_same_v<T, std::optional<Watts>>) {
        bool has;
        Watts w;
        Get(r, has);
        Get(r, w);  // always present, keeps the layout fixed-width
        v = has ? std::optional<Watts>(w) : std::nullopt;
    } else if constexpr (std::is_same_v<T, bool>) {
        v = r.U8() != 0;
    } else if constexpr (std::is_same_v<T, api::StatusCode>) {
        const std::uint8_t code = r.U8();
        if (code > static_cast<std::uint8_t>(api::StatusCode::kUnimplemented)) {
            throw WireError("status code " + std::to_string(code) +
                                " out of range",
                            r.pos() - 1);
        }
        v = static_cast<api::StatusCode>(code);
    } else if constexpr (std::is_same_v<T, workload::ServiceType>) {
        const std::uint8_t service = r.U8();
        if (service >= workload::kAllServices.size()) {
            throw WireError("service type " + std::to_string(service) +
                                " out of range",
                            r.pos() - 1);
        }
        v = static_cast<workload::ServiceType>(service);
    } else if constexpr (std::is_same_v<T, double>) {
        v = std::bit_cast<double>(r.U64());
    } else {
        static_assert(std::is_same_v<T, std::uint64_t>);
        v = r.U64();
    }
}

/**
 * Reads a field list with one bounds check per fixed-width run. A run
 * that does not fit is read field by field with a check each, so the
 * error is the one the first short or bad field raises, at its offset,
 * exactly as if every field were checked. ArchiveReader's truncation
 * is a std::runtime_error, which DecodeBody turns into a WireError.
 */
class FieldReader
{
  public:
    explicit FieldReader(ArchiveReader& r) : r_(r) {}

    template <class... T>
    void Fixed(T&... fields)
    {
        constexpr std::size_t n = (kWidth<T> + ...);
        if (n <= r_.remaining()) {
            const std::size_t pos = r_.pos();
            RunReader run(r_.View(n), pos);
            (Get(run, fields), ...);
        } else {
            (Get(r_, fields), ...);  // throws at the first short field
        }
    }

    void Str(std::string& s) { s = r_.StrView(); }

  private:
    ArchiveReader& r_;
};

/** Decode the body `r` holds into a new alternative `I` of `message`. */
template <std::size_t I>
void
DecodeInto(Payload& message, ArchiveReader& r)
{
    FieldReader reader(r);
    Fields(reader, message.emplace<I>());
}

template <std::size_t... I>
constexpr auto
MakeDecoders(std::index_sequence<I...>)
{
    return std::array<void (*)(Payload&, ArchiveReader&), sizeof...(I)>{
        &DecodeInto<I>...};
}

/** One decoder per Payload alternative, indexed by wire tag − 1. */
constexpr auto kDecoders =
    MakeDecoders(std::make_index_sequence<std::variant_size_v<Payload>>());

Frame
ToFrame(const FrameView& view)
{
    Frame frame;
    frame.kind = view.kind;
    frame.type = view.type;
    frame.epoch = view.epoch;
    frame.call_id = view.call_id;
    frame.target = view.target;
    frame.payload = view.payload;
    return frame;
}

}  // namespace

const char*
MessageTypeName(MessageType type)
{
    switch (type) {
      case MessageType::kNone: return "None";
      case MessageType::kPowerReadRequest: return "PowerReadRequest";
      case MessageType::kPowerReadResult: return "PowerReadResult";
      case MessageType::kCapRequest: return "CapRequest";
      case MessageType::kCapResult: return "CapResult";
      case MessageType::kContractUpdate: return "ContractUpdate";
      case MessageType::kTuneEstimate: return "TuneEstimate";
      case MessageType::kHealthProbe: return "HealthProbe";
      case MessageType::kHealthResult: return "HealthResult";
      case MessageType::kStatusRequest: return "StatusRequest";
      case MessageType::kStatusResult: return "StatusResult";
    }
    return "?";
}

// Payload lists the api messages in MessageType order, so a payload's
// wire tag is its variant index + 1.
static_assert(std::variant_size_v<Payload> ==
              static_cast<std::size_t>(MessageType::kStatusResult));
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     MessageType::kPowerReadResult) - 1,
                                 Payload>,
                             api::PowerReadResult>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     MessageType::kStatusResult) - 1,
                                 Payload>,
                             api::StatusResult>);

MessageType
TypeOf(const Payload& message)
{
    return static_cast<MessageType>(message.index() + 1);
}

std::string
EncodeBody(const Payload& message)
{
    return std::visit(
        [](const auto& m) {
            SizeSink size;
            Fields(size, m);
            std::string bytes(size.bytes, '\0');
            CursorSink sink{bytes.data()};
            Fields(sink, m);
            return bytes;
        },
        message);
}

Payload
DecodeBody(MessageType type, std::string_view body)
{
    if (type == MessageType::kNone) {
        throw WireError("message type None has no body", 0);
    }
    const std::size_t index = static_cast<std::size_t>(type) - 1;
    if (index >= kDecoders.size()) {
        throw WireError("message type " +
                            std::to_string(static_cast<unsigned>(type)) +
                            " out of range",
                        0);
    }
    Payload message;
    ArchiveReader r(body);
    try {
        kDecoders[index](message, r);
    } catch (const WireError&) {
        throw;
    } catch (const std::runtime_error& e) {
        // ArchiveReader truncation → uniform WireError with context.
        throw WireError(std::string(MessageTypeName(type)) +
                            " body truncated: " + e.what(),
                        r.pos());
    }
    if (!r.AtEnd()) {
        throw WireError(std::string(MessageTypeName(type)) + " body has " +
                            std::to_string(r.remaining()) +
                            " trailing bytes",
                        r.pos());
    }
    return message;
}

std::string
EncodeFrame(const Frame& frame)
{
    std::string bytes;
    PutFrame(bytes, frame.kind, frame.type, frame.epoch, frame.call_id,
             frame.target, [&frame](auto& io) { io.Raw(frame.payload); });
    return bytes;
}

void
AppendFrame(std::string& out, FrameKind kind, std::uint64_t epoch,
            std::uint64_t call_id, std::string_view target,
            const Payload* body)
{
    if (body == nullptr) {
        PutFrame(out, kind, MessageType::kNone, epoch, call_id, target,
                 [](auto&) {});
        return;
    }
    std::visit(
        [&](const auto& m) {
            PutFrame(out, kind, TypeOf(*body), epoch, call_id, target,
                     [&m](auto& io) { Fields(io, m); });
        },
        *body);
}

FrameView
ParseFrame(std::string_view bytes)
{
    if (bytes.size() < kFrameFixedHeaderBytes + 8) {
        throw WireError("frame truncated: " + std::to_string(bytes.size()) +
                            " bytes, need at least " +
                            std::to_string(kFrameFixedHeaderBytes + 8),
                        bytes.size());
    }

    // Verify the digest before trusting ANY field: a bit flip anywhere
    // (including in the length or type bytes) must be reported as
    // corruption, not as whatever that field now happens to mean.
    const std::size_t digest_at = bytes.size() - 8;
    if (LoadWord<std::uint64_t>(bytes.data() + digest_at) !=
        Xxh64(bytes.substr(0, digest_at))) {
        throw WireError("frame digest mismatch (corrupted frame)", digest_at);
    }

    // The size check above covers the fixed header: its fields are read
    // at their offsets with no check each.
    ArchiveReader r(bytes);
    const char* const header = r.View(kFrameFixedHeaderBytes).data();
    FrameView frame;
    if (LoadWord<std::uint32_t>(header) != kWireMagic) {
        throw WireError("bad magic", 0);
    }
    const std::uint32_t frame_len = LoadWord<std::uint32_t>(header + 4);
    if (frame_len != bytes.size()) {
        throw WireError("frame length field " + std::to_string(frame_len) +
                            " does not match actual size " +
                            std::to_string(bytes.size()),
                        4);
    }
    const std::uint32_t version = LoadWord<std::uint32_t>(header + 8);
    if (version != kWireVersion) {
        throw WireError("unsupported wire version " + std::to_string(version),
                        8);
    }
    const auto type = static_cast<std::uint8_t>(header[12]);
    if (type > static_cast<std::uint8_t>(MessageType::kStatusResult)) {
        throw WireError("message type " + std::to_string(type) +
                            " out of range",
                        12);
    }
    frame.type = static_cast<MessageType>(type);
    const auto kind = static_cast<std::uint8_t>(header[13]);
    if (kind > static_cast<std::uint8_t>(FrameKind::kError)) {
        throw WireError("frame kind " + std::to_string(kind) + " out of range",
                        13);
    }
    frame.kind = static_cast<FrameKind>(kind);
    frame.epoch = LoadWord<std::uint64_t>(header + 14);
    frame.call_id = LoadWord<std::uint64_t>(header + 22);
    try {
        frame.target = r.StrView();
        frame.payload = r.StrView();
    } catch (const std::runtime_error& e) {
        throw WireError(std::string("frame sections truncated: ") + e.what(),
                        r.pos());
    }
    if (r.pos() != digest_at) {
        throw WireError("frame has " + std::to_string(digest_at - r.pos()) +
                            " trailing bytes before digest",
                        r.pos());
    }
    return frame;
}

Frame
DecodeFrame(std::string_view bytes)
{
    return ToFrame(ParseFrame(bytes));
}

void
FrameReader::Feed(std::string_view bytes)
{
    ThrowDeferred();
    if (poisoned_) {
        throw WireError("stream poisoned by an earlier framing error",
                        consumed_);
    }
    // Drop what Next/NextView consumed since the last Feed: the unread
    // tail moves once per Feed, not once per frame.
    buffer_.erase(0, head_);
    head_ = 0;
    buffer_.append(bytes.data(), bytes.size());
    if (frame_len_ != 0) return;  // this frame's header is checked
    if (auto error = CheckHeader()) throw *error;
}

std::string_view
FrameReader::Unread() const
{
    return std::string_view(buffer_).substr(head_);
}

std::optional<WireError>
FrameReader::CheckHeader()
{
    const std::string_view unread = Unread();
    if (unread.size() < 8) return std::nullopt;
    if (LoadWord<std::uint32_t>(unread.data()) != kWireMagic) {
        poisoned_ = true;
        return WireError("bad magic on stream", consumed_);
    }
    const std::uint32_t frame_len = LoadWord<std::uint32_t>(unread.data() + 4);
    if (frame_len < kFrameFixedHeaderBytes + 8 + 16 ||
        frame_len > kMaxFrameBytes) {
        poisoned_ = true;
        return WireError("frame length " + std::to_string(frame_len) +
                             " outside [" +
                             std::to_string(kFrameFixedHeaderBytes + 8 + 16) +
                             ", " + std::to_string(kMaxFrameBytes) + "]",
                         consumed_ + 4);
    }
    frame_len_ = frame_len;
    return std::nullopt;
}

void
FrameReader::ThrowDeferred()
{
    if (!deferred_) return;
    const WireError error = *deferred_;
    deferred_.reset();
    throw error;
}

bool
FrameReader::HasFrame() const
{
    if (deferred_) return true;
    return !poisoned_ && frame_len_ != 0 && Unread().size() >= frame_len_;
}

FrameView
FrameReader::NextView()
{
    ThrowDeferred();
    if (!HasFrame()) {
        throw WireError("Next() without a complete frame", consumed_);
    }
    FrameView frame;
    try {
        frame = ParseFrame(Unread().substr(0, frame_len_));
    } catch (const WireError& e) {
        poisoned_ = true;
        throw e.Shifted(consumed_);
    }
    head_ += frame_len_;
    consumed_ += frame_len_;
    frame_len_ = 0;
    if (head_ < buffer_.size()) deferred_ = CheckHeader();
    return frame;
}

Frame
FrameReader::Next()
{
    return ToFrame(NextView());
}

}  // namespace dynamo::rpc::wire
