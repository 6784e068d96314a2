#include "rpc/wire.h"

#include <type_traits>
#include <utility>
#include <variant>

#include "common/archive.h"
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
    return ar.bytes();
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
    // Header + variable sections first; the length field at offset 4
    // is patched once the total (body + 8-byte digest) is known.
    Archive ar;
    ar.U32(kWireMagic);
    ar.U32(0);  // frame_len placeholder
    ar.U32(kWireVersion);
    ar.U8(static_cast<std::uint8_t>(frame.type));
    ar.U8(static_cast<std::uint8_t>(frame.kind));
    ar.U64(frame.epoch);
    ar.U64(frame.call_id);
    ar.Str(frame.target);
    ar.Str(frame.payload);

    std::string bytes = ar.bytes();
    const std::uint32_t total = static_cast<std::uint32_t>(bytes.size() + 8);
    for (int i = 0; i < 4; ++i) {
        bytes[4 + i] = static_cast<char>((total >> (8 * i)) & 0xffu);
    }

    // Digest covers everything before it, length field included.
    const std::uint64_t digest = Fnv1a64(bytes);
    for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<char>((digest >> (8 * i)) & 0xffu));
    }
    return bytes;
}

Frame
DecodeFrame(std::string_view bytes)
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
        Fnv1a64(bytes.substr(0, bytes.size() - 8));
    if (stored_digest != computed_digest) {
        throw WireError("frame digest mismatch (corrupted frame)",
                        bytes.size() - 8);
    }

    ArchiveReader r(bytes);
    Frame frame;
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
        frame.target = r.Str();
        frame.payload = r.Str();
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

void
FrameReader::Feed(std::string_view bytes)
{
    if (poisoned_) {
        throw WireError("stream poisoned by an earlier framing error",
                        consumed_);
    }
    buffer_.append(bytes.data(), bytes.size());
    CheckHeader();
}

void
FrameReader::CheckHeader()
{
    if (buffer_.size() < 8) return;
    ArchiveReader r(buffer_);
    const std::uint32_t magic = r.U32();
    if (magic != kWireMagic) {
        poisoned_ = true;
        throw WireError("bad magic on stream", consumed_);
    }
    const std::uint32_t frame_len = r.U32();
    if (frame_len < kFrameFixedHeaderBytes + 8 + 16 ||
        frame_len > kMaxFrameBytes) {
        poisoned_ = true;
        throw WireError("frame length " + std::to_string(frame_len) +
                            " outside [" +
                            std::to_string(kFrameFixedHeaderBytes + 8 + 16) +
                            ", " + std::to_string(kMaxFrameBytes) + "]",
                        consumed_ + 4);
    }
}

bool
FrameReader::HasFrame() const
{
    if (poisoned_ || buffer_.size() < 8) return false;
    ArchiveReader r(buffer_);
    r.U32();  // magic, validated by CheckHeader
    return buffer_.size() >= r.U32();
}

Frame
FrameReader::Next()
{
    if (!HasFrame()) {
        throw WireError("Next() without a complete frame", consumed_);
    }
    ArchiveReader r(buffer_);
    r.U32();
    const std::uint32_t frame_len = r.U32();
    const std::string_view frame_bytes =
        std::string_view(buffer_).substr(0, frame_len);
    Frame frame;
    try {
        frame = DecodeFrame(frame_bytes);
    } catch (const WireError&) {
        poisoned_ = true;
        throw;
    }
    buffer_.erase(0, frame_len);
    consumed_ += frame_len;
    if (!buffer_.empty()) CheckHeader();
    return frame;
}

}  // namespace dynamo::rpc::wire
