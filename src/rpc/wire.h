/**
 * @file
 * Canonical wire serialization for the `dynamo::api` control plane.
 *
 * Production Dynamo speaks Thrift between daemons; this repo's
 * deployment mode (SocketTransport + dynamo_agentd/dynamo_controllerd)
 * needs the same property Thrift provides — a versioned, self-framing,
 * corruption-detecting byte format — built on the canonical-bytes
 * guarantees of common/archive.h:
 *
 *   - every api message type has exactly ONE byte representation
 *     (fixed little-endian widths, length-prefixed strings), so
 *     serialize→parse→serialize is a byte-identical fixed point,
 *     mirroring the fleet-spec round-trip invariant;
 *   - every frame is integrity-checked: a trailing XXH64 digest
 *     (common/xxh64.h) over the rest of the frame catches bit flips,
 *     and explicit length fields catch truncation. A torn, short, or
 *     corrupted frame decodes to a thrown WireError naming the byte
 *     offset and what failed — never to UB or a silently wrong
 *     message.
 *
 * Frame layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       4     magic "DYNW" (0x57 0x4e 0x59 0x44 on the wire)
 *   4       4     frame_len: total frame size in bytes, magic included
 *   8       4     api version (kWireVersion; currently 2)
 *   12      1     message type (MessageType)
 *   13      1     frame kind (FrameKind: request / response / error)
 *   14      8     epoch (fleet-spec epoch observed by the sender)
 *   22      8     call id (pairs responses with requests on one conn)
 *   30      8+n   target: length-prefixed endpoint name (requests),
 *                 empty for responses; error reason for error frames
 *   ...     8+m   payload: length-prefixed encoded api message body
 *   end-8   8     XXH64 digest (seed 0) of bytes [0, end-8)
 *
 * `frame_len` makes the format self-framing on a byte stream: a
 * FrameReader needs only the first 8 bytes to know how much to wait
 * for, and a length exceeding kMaxFrameBytes (or a bad magic) marks
 * the connection poisoned rather than waiting forever on garbage.
 *
 * Each message's body layout is written once, as a list of its fields
 * (wire.cc) that the encoder walks twice, to size the frame and then
 * to write it, and the decoder walks once, checking the bounds of each
 * run of fixed-width fields once.
 *
 * The socket path works in place: AppendFrame writes a frame straight
 * into a connection's write buffer, growing it once, and ParseFrame /
 * FrameReader::NextView parse an inbound frame as views into the
 * reader's buffer, so only the decoded body is ever copied out.
 * EncodeBody, EncodeFrame and DecodeFrame are the owning forms of the
 * same codec.
 */
#ifndef DYNAMO_RPC_WIRE_H_
#define DYNAMO_RPC_WIRE_H_

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "rpc/payload.h"

namespace dynamo::rpc::wire {

/**
 * Wire protocol version; bumped on any change to the frame or body
 * layout or to the digest. Version 2 seals frames with XXH64 instead
 * of version 1's FNV-1a; there is no v1 path, so a v1 frame fails the
 * digest check like any corrupt frame.
 */
inline constexpr std::uint32_t kWireVersion = 2;

/** "DYNW" read as a little-endian u32. */
inline constexpr std::uint32_t kWireMagic = 0x574e5944u;

/**
 * Upper bound on a single frame. Control-plane messages are tiny
 * (largest is a PowerReadResult, well under 1 KiB); anything larger is
 * a corrupted length field or a stray writer, and the reader reports
 * it instead of buffering unboundedly.
 */
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/** Size of the fixed-width prefix through call_id (before `target`). */
inline constexpr std::size_t kFrameFixedHeaderBytes = 30;

/** Wire tag for each api message type. Values are wire format — append
 *  only, never renumber. */
enum class MessageType : std::uint8_t {
    kNone = 0,  // error frames carry no body
    kPowerReadRequest = 1,
    kPowerReadResult = 2,
    kCapRequest = 3,
    kCapResult = 4,
    kContractUpdate = 5,
    kTuneEstimate = 6,
    kHealthProbe = 7,
    kHealthResult = 8,
    kStatusRequest = 9,
    kStatusResult = 10,
};

/** Readable name for diagnostics ("PowerReadResult", ...). */
const char* MessageTypeName(MessageType type);

/** Role of a frame on the stream. Values are wire format. */
enum class FrameKind : std::uint8_t {
    kRequest = 0,
    kResponse = 1,

    /** The peer could not serve the paired request; `target` holds the
     *  reason string handed to the caller's completion. */
    kError = 2,
};

/**
 * Decode-side failure: truncated, corrupted, oversized, or
 * unrecognized bytes. `offset` is the byte position within the frame
 * (or stream buffer) where decoding failed.
 */
class WireError : public std::runtime_error
{
  public:
    WireError(std::string what, std::size_t offset)
        : std::runtime_error("wire: " + what + " (at byte offset " +
                             std::to_string(offset) + ")"),
          reason_(std::move(what)),
          offset_(offset)
    {
    }

    std::size_t offset() const { return offset_; }

    /** The same error `base` bytes further on: a frame's error placed
     *  in the stream the frame was cut from. */
    WireError Shifted(std::size_t base) const
    {
        return WireError(reason_, base + offset_);
    }

  private:
    std::string reason_;
    std::size_t offset_ = 0;
};

/** One decoded frame. */
struct Frame
{
    FrameKind kind = FrameKind::kRequest;
    MessageType type = MessageType::kNone;

    /** Fleet-spec epoch the sender observed (0 = unversioned). */
    std::uint64_t epoch = 0;

    /** Pairs a response/error with its request on one connection. */
    std::uint64_t call_id = 0;

    /** Endpoint name (requests) / error reason (error frames). */
    std::string target;

    /** Encoded message body (EncodeBody output). */
    std::string payload;
};

/**
 * One frame parsed in place: the fields of Frame, with `target` and
 * `payload` viewing the bytes the frame was parsed from. A view is
 * valid only as long as those bytes are.
 */
struct FrameView
{
    FrameKind kind = FrameKind::kRequest;
    MessageType type = MessageType::kNone;
    std::uint64_t epoch = 0;
    std::uint64_t call_id = 0;
    std::string_view target;
    std::string_view payload;
};

// ---------------------------------------------------------------------------
// Message body codec
// ---------------------------------------------------------------------------

/**
 * Classify a transport payload. Payload is a closed variant over the
 * api messages, so every payload has a wire tag; a type the wire
 * cannot re-materialize on the far side does not compile.
 */
MessageType TypeOf(const Payload& message);

/** Serialize one api message to canonical body bytes. */
std::string EncodeBody(const Payload& message);

/**
 * Parse canonical body bytes back into the api struct for `type`,
 * built in place in the returned Payload. Throws WireError on
 * truncation, trailing garbage, or out-of-range enum values, and for
 * a type with no message: kNone (error frames) or one past the last.
 */
Payload DecodeBody(MessageType type, std::string_view body);

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/** Serialize a frame, including header, lengths, and digest. */
std::string EncodeFrame(const Frame& frame);

/**
 * Append one frame to `out`, encoding `body` in place: the bytes equal
 * `EncodeFrame` of a Frame whose type is `TypeOf(*body)` and whose
 * payload is `EncodeBody(*body)`. A null `body` writes a kNone frame
 * with an empty payload (error frames). Reuses `out`'s capacity, so a
 * warm buffer takes a frame without allocating.
 */
void AppendFrame(std::string& out, FrameKind kind, std::uint64_t epoch,
                 std::uint64_t call_id, std::string_view target,
                 const Payload* body);

/**
 * Parse exactly one complete frame from `bytes` (which must be
 * exactly one frame, as cut by FrameReader). Verifies magic, version,
 * length consistency, enum ranges, and the trailing digest; throws
 * WireError naming the first check that failed and the offset. The
 * result views `bytes`.
 */
FrameView ParseFrame(std::string_view bytes);

/** ParseFrame, copying `target` and `payload` out of `bytes`. */
Frame DecodeFrame(std::string_view bytes);

/**
 * Incremental stream cutter: feed arbitrary byte chunks as they
 * arrive off a socket; complete frames become available in order.
 *
 * The reader validates magic and frame_len as soon as the first 8
 * bytes of a frame are buffered, so a poisoned stream (bad magic,
 * absurd length) is detected without waiting for more bytes, and it
 * keeps the length it read until the frame is taken. After a throw
 * the reader is permanently poisoned and the connection must be
 * dropped (stream sync cannot be re-established mid-garbage). Error
 * offsets are stream offsets: the bytes consumed before the bad frame
 * plus the failing field's offset within it.
 *
 * Frames are consumed by moving an offset; the consumed prefix is
 * dropped once per Feed, so taking a frame never moves the rest of
 * the buffer.
 */
class FrameReader
{
  public:
    /** Append raw bytes from the stream. Throws WireError on a bad
     *  magic or oversized/undersized frame length. Ends the views
     *  returned by NextView(). */
    void Feed(std::string_view bytes);

    /** True when NextView() has something to hand over: a complete
     *  buffered frame, or a framing error found behind the last frame
     *  it returned, which it then throws. */
    bool HasFrame() const;

    /** Pop and parse the next complete frame (HasFrame() must be
     *  true). The result views the reader's buffer and is valid until
     *  the next Feed. Throws WireError if the frame fails validation.
     *  A bad header right behind the popped frame does not cost that
     *  frame: the error is thrown by the reader's next call. */
    FrameView NextView();

    /** NextView, copied out of the reader's buffer. */
    Frame Next();

    /** Bytes consumed from the stream so far (diagnostics). */
    std::uint64_t bytes_consumed() const { return consumed_; }

    bool poisoned() const { return poisoned_; }

  private:
    /** Validate the buffered header prefix; on a bad one, poison the
     *  reader and return the error. */
    std::optional<WireError> CheckHeader();

    /** Throw the error CheckHeader deferred, if any. */
    void ThrowDeferred();

    /** The bytes not yet consumed: a frame prefix starts here. */
    std::string_view Unread() const;

    std::string buffer_;
    std::size_t head_ = 0;  // consumed prefix of buffer_, dropped by Feed

    /** Length of the frame that starts at head_, read once by the
     *  CheckHeader that validated it; 0 until then. */
    std::uint32_t frame_len_ = 0;

    std::uint64_t consumed_ = 0;
    bool poisoned_ = false;

    /** A bad header found behind a frame NextView returned. */
    std::optional<WireError> deferred_;
};

}  // namespace dynamo::rpc::wire

#endif  // DYNAMO_RPC_WIRE_H_
