#include "rpc/wire.h"

#include <type_traits>
#include <utility>
#include <variant>

#include "common/archive.h"
#include "common/xxh64.h"
#include "core/api.h"

namespace dynamo::rpc::wire {

namespace {

// --- body encode helpers ---------------------------------------------------

void PutStatus(Archive& ar, const api::Status& s)
{
    ar.U8(static_cast<std::uint8_t>(s.code));
    ar.Bool(s.retriable);
    ar.Str(s.detail);
}

void PutOptWatts(Archive& ar, const std::optional<Watts>& w)
{
    ar.Bool(w.has_value());
    ar.F64(w.has_value() ? *w : 0.0);
}

// --- body decode helpers ---------------------------------------------------
//
// ArchiveReader throws std::runtime_error with the offset on
// truncation; Get* additionally range-check enums, and DecodeBody
// wraps everything in WireError so callers see one exception type.

api::Status GetStatus(ArchiveReader& r)
{
    api::Status s;
    const std::uint8_t code = r.U8();
    if (code > static_cast<std::uint8_t>(api::StatusCode::kUnimplemented)) {
        throw WireError("status code " + std::to_string(code) +
                            " out of range",
                        r.pos() - 1);
    }
    s.code = static_cast<api::StatusCode>(code);
    s.retriable = r.Bool();
    s.detail = r.Str();
    return s;
}

std::optional<Watts> GetOptWatts(ArchiveReader& r)
{
    const bool has = r.Bool();
    const Watts w = r.F64();  // always present, keeps the layout fixed-width
    if (!has) return std::nullopt;
    return w;
}

workload::ServiceType GetService(ArchiveReader& r)
{
    const std::uint8_t v = r.U8();
    if (v >= workload::kAllServices.size()) {
        throw WireError("service type " + std::to_string(v) + " out of range",
                        r.pos() - 1);
    }
    return static_cast<workload::ServiceType>(v);
}

// --- per-type body codecs --------------------------------------------------

void EncodePowerReadResult(Archive& ar, const api::PowerReadResult& m)
{
    PutStatus(ar, m.status);
    ar.Str(m.source);
    ar.F64(m.power);
    ar.Bool(m.estimated);
    ar.U8(static_cast<std::uint8_t>(m.service));
    ar.Bool(m.capped);
    ar.F64(m.power_limit);
    ar.F64(m.cpu_power);
    ar.F64(m.memory_power);
    ar.F64(m.other_power);
    ar.F64(m.conversion_loss);
    ar.F64(m.quota);
    ar.F64(m.floor);
    PutOptWatts(ar, m.contract);
}

api::PowerReadResult DecodePowerReadResult(ArchiveReader& r)
{
    api::PowerReadResult m;
    m.status = GetStatus(r);
    m.source = r.Str();
    m.power = r.F64();
    m.estimated = r.Bool();
    m.service = GetService(r);
    m.capped = r.Bool();
    m.power_limit = r.F64();
    m.cpu_power = r.F64();
    m.memory_power = r.F64();
    m.other_power = r.F64();
    m.conversion_loss = r.F64();
    m.quota = r.F64();
    m.floor = r.F64();
    m.contract = GetOptWatts(r);
    return m;
}

void EncodeStatusResult(Archive& ar, const api::StatusResult& m)
{
    PutStatus(ar, m.status);
    ar.Str(m.endpoint);
    ar.Str(m.health);
    ar.U64(m.cycles);
    ar.U64(m.caps_adopted);
    ar.U64(m.contracts_adopted);
    ar.F64(m.power);
    ar.Bool(m.capping);
}

api::StatusResult DecodeStatusResult(ArchiveReader& r)
{
    api::StatusResult m;
    m.status = GetStatus(r);
    m.endpoint = r.Str();
    m.health = r.Str();
    m.cycles = r.U64();
    m.caps_adopted = r.U64();
    m.contracts_adopted = r.U64();
    m.power = r.F64();
    m.capping = r.Bool();
    return m;
}

// --- body and frame encoders ----------------------------------------------

void
PutBody(Archive& ar, const Payload& message)
{
    std::visit(
        [&ar](const auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, api::PowerReadResult>) {
                EncodePowerReadResult(ar, m);
            } else if constexpr (std::is_same_v<T, api::CapRequest>) {
                PutOptWatts(ar, m.limit);
            } else if constexpr (std::is_same_v<T, api::CapResult> ||
                                 std::is_same_v<T, api::HealthResult>) {
                PutStatus(ar, m.status);
            } else if constexpr (std::is_same_v<T, api::ContractUpdate>) {
                PutOptWatts(ar, m.limit);
                ar.U64(m.span_id);
                ar.U64(m.spec_epoch);
            } else if constexpr (std::is_same_v<T, api::TuneEstimate>) {
                ar.F64(m.reference_ratio);
            } else if constexpr (std::is_same_v<T, api::StatusResult>) {
                EncodeStatusResult(ar, m);
            } else {
                // PowerReadRequest, HealthProbe, StatusRequest: empty body.
                static_assert(std::is_empty_v<T>);
            }
        },
        message);
}

/** The fixed header and the target section of a frame. */
void
PutHeader(Archive& ar, FrameKind kind, MessageType type, std::uint64_t epoch,
          std::uint64_t call_id, std::string_view target)
{
    ar.U32(kWireMagic);
    ar.U32(0);  // frame_len, patched by SealFrame
    ar.U32(kWireVersion);
    ar.U8(static_cast<std::uint8_t>(type));
    ar.U8(static_cast<std::uint8_t>(kind));
    ar.U64(epoch);
    ar.U64(call_id);
    ar.Str(target);
}

/** Overwrite the `n` bytes at `at` with `v`, little-endian. */
void
PatchLe(std::string& bytes, std::size_t at, std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i) {
        bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
    }
}

/** Patch frame_len of the frame that runs from `start` to the end of
 *  `out`, then append the digest. */
void
SealFrame(std::string& out, std::size_t start)
{
    PatchLe(out, start + 4, out.size() - start + 8, 4);
    // The digest covers everything before it, length field included.
    const std::uint64_t digest = Xxh64(std::string_view(out).substr(start));
    out.resize(out.size() + 8);
    PatchLe(out, out.size() - 8, digest, 8);
}

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
    Archive ar;
    PutBody(ar, message);
    return ar.TakeBytes();
}

Payload
DecodeBody(MessageType type, std::string_view body)
{
    ArchiveReader r(body);
    Payload message;
    try {
        switch (type) {
          case MessageType::kNone:
            throw WireError("message type None has no body", 0);
          case MessageType::kPowerReadRequest:
            message = api::PowerReadRequest{};
            break;
          case MessageType::kPowerReadResult:
            message = DecodePowerReadResult(r);
            break;
          case MessageType::kCapRequest:
            message = api::CapRequest{GetOptWatts(r)};
            break;
          case MessageType::kCapResult:
            message = api::CapResult{GetStatus(r)};
            break;
          case MessageType::kContractUpdate: {
            api::ContractUpdate m;
            m.limit = GetOptWatts(r);
            m.span_id = r.U64();
            m.spec_epoch = r.U64();
            message = m;
            break;
          }
          case MessageType::kTuneEstimate:
            message = api::TuneEstimate{r.F64()};
            break;
          case MessageType::kHealthProbe:
            message = api::HealthProbe{};
            break;
          case MessageType::kHealthResult:
            message = api::HealthResult{GetStatus(r)};
            break;
          case MessageType::kStatusRequest:
            message = api::StatusRequest{};
            break;
          case MessageType::kStatusResult:
            message = DecodeStatusResult(r);
            break;
        }
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
                            std::to_string(body.size() - r.pos()) +
                            " trailing bytes",
                        r.pos());
    }
    return message;
}

std::string
EncodeFrame(const Frame& frame)
{
    Archive ar;
    PutHeader(ar, frame.kind, frame.type, frame.epoch, frame.call_id,
              frame.target);
    ar.Str(frame.payload);
    std::string bytes = ar.TakeBytes();
    SealFrame(bytes, 0);
    return bytes;
}

void
AppendFrame(std::string& out, FrameKind kind, std::uint64_t epoch,
            std::uint64_t call_id, std::string_view target,
            const Payload* body)
{
    const std::size_t start = out.size();
    Archive ar(std::move(out));
    try {
        PutHeader(ar, kind, body == nullptr ? MessageType::kNone : TypeOf(*body),
                  epoch, call_id, target);
        const std::size_t body_at = ar.size();
        ar.U64(0);  // body length, patched once the body is written
        if (body != nullptr) PutBody(ar, *body);
        out = ar.TakeBytes();
        PatchLe(out, body_at, out.size() - body_at - 8, 8);
    } catch (...) {
        // Only allocation can fail; keep the frames queued before.
        out = ar.TakeBytes();
        out.resize(start);
        throw;
    }
    SealFrame(out, start);
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
    ArchiveReader tail(bytes.substr(bytes.size() - 8));
    const std::uint64_t stored_digest = tail.U64();
    const std::uint64_t computed_digest =
        Xxh64(bytes.substr(0, bytes.size() - 8));
    if (stored_digest != computed_digest) {
        throw WireError("frame digest mismatch (corrupted frame)",
                        bytes.size() - 8);
    }

    ArchiveReader r(bytes);
    FrameView frame;
    const std::uint32_t magic = r.U32();
    if (magic != kWireMagic) {
        throw WireError("bad magic", 0);
    }
    const std::uint32_t frame_len = r.U32();
    if (frame_len != bytes.size()) {
        throw WireError("frame length field " + std::to_string(frame_len) +
                            " does not match actual size " +
                            std::to_string(bytes.size()),
                        4);
    }
    const std::uint32_t version = r.U32();
    if (version != kWireVersion) {
        throw WireError("unsupported wire version " + std::to_string(version),
                        8);
    }
    const std::uint8_t type = r.U8();
    if (type > static_cast<std::uint8_t>(MessageType::kStatusResult)) {
        throw WireError("message type " + std::to_string(type) +
                            " out of range",
                        12);
    }
    frame.type = static_cast<MessageType>(type);
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(FrameKind::kError)) {
        throw WireError("frame kind " + std::to_string(kind) + " out of range",
                        13);
    }
    frame.kind = static_cast<FrameKind>(kind);
    frame.epoch = r.U64();
    frame.call_id = r.U64();
    try {
        frame.target = r.StrView();
        frame.payload = r.StrView();
    } catch (const std::runtime_error& e) {
        throw WireError(std::string("frame sections truncated: ") + e.what(),
                        r.pos());
    }
    if (r.pos() != bytes.size() - 8) {
        throw WireError("frame has " +
                            std::to_string(bytes.size() - 8 - r.pos()) +
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
    if (Unread().size() < 8) return std::nullopt;
    ArchiveReader r(Unread());
    const std::uint32_t magic = r.U32();
    if (magic != kWireMagic) {
        poisoned_ = true;
        return WireError("bad magic on stream", consumed_);
    }
    const std::uint32_t frame_len = r.U32();
    if (frame_len < kFrameFixedHeaderBytes + 8 + 16 ||
        frame_len > kMaxFrameBytes) {
        poisoned_ = true;
        return WireError("frame length " + std::to_string(frame_len) +
                             " outside [" +
                             std::to_string(kFrameFixedHeaderBytes + 8 + 16) +
                             ", " + std::to_string(kMaxFrameBytes) + "]",
                         consumed_ + 4);
    }
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
    if (poisoned_ || Unread().size() < 8) return false;
    ArchiveReader r(Unread());
    r.U32();  // magic, validated by CheckHeader
    return Unread().size() >= r.U32();
}

FrameView
FrameReader::NextView()
{
    ThrowDeferred();
    if (!HasFrame()) {
        throw WireError("Next() without a complete frame", consumed_);
    }
    ArchiveReader r(Unread());
    r.U32();
    const std::uint32_t frame_len = r.U32();
    FrameView frame;
    try {
        frame = ParseFrame(Unread().substr(0, frame_len));
    } catch (const WireError& e) {
        poisoned_ = true;
        throw e.Shifted(consumed_);
    }
    head_ += frame_len;
    consumed_ += frame_len;
    if (head_ < buffer_.size()) deferred_ = CheckHeader();
    return frame;
}

Frame
FrameReader::Next()
{
    return ToFrame(NextView());
}

}  // namespace dynamo::rpc::wire
