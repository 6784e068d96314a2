/**
 * @file
 * Wire-format tests for the deployment-mode serialization layer
 * (src/rpc/wire.{h,cc}):
 *
 *   - every `dynamo::api` message round-trips encode → decode → encode
 *     to BYTE-IDENTICAL output (the canonical-bytes fixed point the
 *     SimTransport/SocketTransport twin-ness rests on);
 *   - frames round-trip through EncodeFrame/DecodeFrame and through
 *     the incremental FrameReader under arbitrary chunking;
 *   - hostile input — truncations at every offset, single-bit flips,
 *     random garbage, oversized lengths — decodes to a thrown
 *     WireError, never to a crash, hang, or silently wrong message.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/archive.h"
#include "common/rng.h"
#include "common/xxh64.h"
#include "core/api.h"
#include "rpc/wire.h"

namespace dynamo::rpc::wire {
namespace {

api::Status FullStatus()
{
    api::Status s;
    s.code = api::StatusCode::kUnavailable;
    s.retriable = true;
    s.detail = "last aggregation invalid";
    return s;
}

/** One representative of every MessageType, with every field set to a
 *  non-default value so a dropped field can't round-trip by accident. */
std::vector<Payload> SampleMessages()
{
    std::vector<Payload> messages;
    messages.emplace_back(api::PowerReadRequest{});

    api::PowerReadResult read;
    read.status = FullStatus();
    read.source = "agent:sb0/rpp3/s7";
    read.power = 412.5;
    read.estimated = true;
    read.service = workload::ServiceType::kHadoop;
    read.capped = true;
    read.power_limit = 350.0;
    read.cpu_power = 201.25;
    read.memory_power = 88.0;
    read.other_power = 93.5;
    read.conversion_loss = 29.75;
    read.quota = 19000.0;
    read.floor = 12000.0;
    read.contract = 17500.0;
    messages.emplace_back(read);

    api::CapRequest cap;
    cap.limit = 275.0;
    messages.emplace_back(cap);

    api::CapResult cap_ack;
    cap_ack.status = api::Status::Rejected("below SLA floor");
    messages.emplace_back(cap_ack);

    api::ContractUpdate contract;
    contract.limit = 18000.0;
    contract.span_id = 0xdeadbeefcafeULL;
    contract.spec_epoch = 42;
    messages.emplace_back(contract);

    api::TuneEstimate tune;
    tune.reference_ratio = 1.0625;
    messages.emplace_back(tune);

    messages.emplace_back(api::HealthProbe{});

    api::HealthResult health;
    health.status = api::Status::Unimplemented("no failover manager");
    messages.emplace_back(health);

    messages.emplace_back(api::StatusRequest{});

    api::StatusResult status;
    status.status = FullStatus();
    status.endpoint = "ctl:sb0/rpp0";
    status.health = "degraded";
    status.cycles = 1234;
    status.caps_adopted = 7;
    status.contracts_adopted = 3;
    status.power = 18432.0;
    status.capping = true;
    messages.emplace_back(status);

    return messages;
}

/** Optional-field variants: empty optionals must round-trip too. */
std::vector<Payload> EmptyOptionalMessages()
{
    api::PowerReadResult read;      // contract unset
    api::CapRequest uncap;          // limit unset = "lift the cap"
    api::ContractUpdate release;    // limit unset = "release the contract"
    return {read, uncap, release};
}

TEST(WireBody, EncodeDecodeEncodeIsByteIdentical)
{
    for (const Payload& message : SampleMessages()) {
        const MessageType type = TypeOf(message);
        SCOPED_TRACE(MessageTypeName(type));
        const std::string first = EncodeBody(message);
        const Payload decoded = DecodeBody(type, first);
        EXPECT_EQ(TypeOf(decoded), type);
        const std::string second = EncodeBody(decoded);
        EXPECT_EQ(first, second);
    }
}

TEST(WireBody, EmptyOptionalsRoundTrip)
{
    for (const Payload& message : EmptyOptionalMessages()) {
        const MessageType type = TypeOf(message);
        SCOPED_TRACE(MessageTypeName(type));
        const std::string first = EncodeBody(message);
        EXPECT_EQ(EncodeBody(DecodeBody(type, first)), first);
    }
    // Spot-check the semantics survived, not just the bytes.
    const Payload uncap = DecodeBody(MessageType::kCapRequest,
                                     EncodeBody(api::CapRequest{}));
    EXPECT_FALSE(std::get<api::CapRequest>(uncap).limit.has_value());
}

TEST(WireBody, DecodedFieldsMatch)
{
    api::PowerReadResult read;
    read.status = FullStatus();
    read.source = "agent:x";
    read.power = 99.5;
    read.capped = true;
    read.power_limit = 80.0;
    read.contract = 77.0;
    const Payload out = DecodeBody(MessageType::kPowerReadResult,
                                   EncodeBody(read));
    const auto& r = std::get<api::PowerReadResult>(out);
    EXPECT_EQ(r.status.code, api::StatusCode::kUnavailable);
    EXPECT_TRUE(r.status.retriable);
    EXPECT_EQ(r.status.detail, "last aggregation invalid");
    EXPECT_EQ(r.source, "agent:x");
    EXPECT_DOUBLE_EQ(r.power, 99.5);
    EXPECT_TRUE(r.capped);
    EXPECT_DOUBLE_EQ(r.power_limit, 80.0);
    ASSERT_TRUE(r.contract.has_value());
    EXPECT_DOUBLE_EQ(*r.contract, 77.0);
}

TEST(WireBody, NonApiPayloadRefused)
{
    // Payload is a closed variant over the api messages, so a non-api
    // value cannot even be built into one: the refusal that used to
    // happen in TypeOf / EncodeBody at run time is now a compile error.
    static_assert(!std::is_constructible_v<Payload, std::string>);
    static_assert(!std::is_constructible_v<Payload, int>);
    // Every payload has a wire tag, in MessageType order.
    EXPECT_EQ(TypeOf(Payload{}), MessageType::kPowerReadRequest);
    EXPECT_EQ(TypeOf(api::StatusResult{}), MessageType::kStatusResult);
    // The one tag without a message (error frames) decodes to nothing,
    // and so does a tag past the last message.
    EXPECT_THROW(DecodeBody(MessageType::kNone, ""), WireError);
    EXPECT_THROW(DecodeBody(static_cast<MessageType>(11), ""), WireError);
}

TEST(WireBody, TruncatedBodyThrows)
{
    const std::string body = EncodeBody(Payload{[] {
        api::StatusResult s;
        s.endpoint = "ctl:sb0";
        s.health = "normal";
        return s;
    }()});
    for (std::size_t cut = 0; cut < body.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        EXPECT_THROW(DecodeBody(MessageType::kStatusResult,
                                std::string_view(body).substr(0, cut)),
                     WireError);
    }
}

TEST(WireBody, TrailingGarbageThrows)
{
    const std::string body = EncodeBody(Payload{api::HealthProbe{}});
    EXPECT_THROW(DecodeBody(MessageType::kHealthProbe, body + "x"),
                 WireError);
}

TEST(WireBody, EveryTruncationOfEveryTypeThrows)
{
    // The decoder checks the bounds of a fixed-width run once; every
    // cut inside a run, a string or a length prefix must still throw.
    std::vector<Payload> messages = SampleMessages();
    for (const Payload& message : EmptyOptionalMessages()) {
        messages.push_back(message);
    }
    std::uint64_t call_id = 1;
    for (const Payload& message : messages) {
        const MessageType type = TypeOf(message);
        SCOPED_TRACE(MessageTypeName(type));
        const std::string body = EncodeBody(message);
        for (std::size_t cut = 0; cut < body.size(); ++cut) {
            SCOPED_TRACE("body cut at " + std::to_string(cut));
            EXPECT_THROW(
                DecodeBody(type, std::string_view(body).substr(0, cut)),
                WireError);
        }
        EXPECT_THROW(DecodeBody(type, body + '\0'), WireError);

        std::string frame;
        AppendFrame(frame, FrameKind::kRequest, 17, call_id++,
                    "agent:sb0/rpp0/s4", &message);
        for (std::size_t cut = 0; cut < frame.size(); ++cut) {
            SCOPED_TRACE("frame cut at " + std::to_string(cut));
            const std::string_view prefix =
                std::string_view(frame).substr(0, cut);
            FrameReader reader;
            reader.Feed(prefix);
            EXPECT_FALSE(reader.HasFrame());
            EXPECT_THROW(ParseFrame(prefix), WireError);
        }
    }
}

TEST(WireBody, ShortRunFailsAtItsFirstShortField)
{
    // A run that does not fit is read field by field: a cut reports the
    // field it falls in, and a bad value before the cut is found first.
    const Payload read = SampleMessages()[1];
    const std::string body = EncodeBody(read);
    // The 12 fields after `source`: power, three 1-byte fields,
    // power_limit, cpu_power at +19, ...
    const std::size_t run = body.size() - 76;
    const std::string_view cut = std::string_view(body).substr(0, run + 20);
    try {
        (void)DecodeBody(MessageType::kPowerReadResult, cut);
        FAIL() << "truncated body accepted";
    } catch (const WireError& e) {
        EXPECT_EQ(e.offset(), run + 19);
        EXPECT_NE(std::string(e.what()).find(
                      "need 8 bytes at offset " + std::to_string(run + 19)),
                  std::string::npos)
            << e.what();
    }

    std::string bad = body;
    bad[run + 9] = 99;  // service
    try {
        (void)DecodeBody(MessageType::kPowerReadResult,
                         std::string_view(bad).substr(0, run + 20));
        FAIL() << "bad service accepted";
    } catch (const WireError& e) {
        EXPECT_EQ(e.offset(), run + 9);
        EXPECT_NE(std::string(e.what()).find("service type 99 out of range"),
                  std::string::npos)
            << e.what();
    }
}

Frame SampleFrame()
{
    Frame frame;
    frame.kind = FrameKind::kRequest;
    frame.type = MessageType::kCapRequest;
    frame.epoch = 17;
    frame.call_id = 0x123456789abcULL;
    frame.target = "agent:sb0/rpp0/s4";
    api::CapRequest cap;
    cap.limit = 300.0;
    frame.payload = EncodeBody(cap);
    return frame;
}

TEST(WireFrame, EncodeDecodeEncodeIsByteIdentical)
{
    const std::string first = EncodeFrame(SampleFrame());
    const Frame decoded = DecodeFrame(first);
    EXPECT_EQ(decoded.kind, FrameKind::kRequest);
    EXPECT_EQ(decoded.type, MessageType::kCapRequest);
    EXPECT_EQ(decoded.epoch, 17u);
    EXPECT_EQ(decoded.call_id, 0x123456789abcULL);
    EXPECT_EQ(decoded.target, "agent:sb0/rpp0/s4");
    EXPECT_EQ(EncodeFrame(decoded), first);
}

TEST(WireFrame, ErrorFrameRoundTrips)
{
    Frame frame;
    frame.kind = FrameKind::kError;
    frame.type = MessageType::kNone;
    frame.call_id = 9;
    frame.target = "connection failed";
    const Frame decoded = DecodeFrame(EncodeFrame(frame));
    EXPECT_EQ(decoded.kind, FrameKind::kError);
    EXPECT_EQ(decoded.target, "connection failed");
    EXPECT_TRUE(decoded.payload.empty());
}

TEST(WireFrame, TruncationAtEveryOffsetThrows)
{
    const std::string bytes = EncodeFrame(SampleFrame());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        EXPECT_THROW(DecodeFrame(std::string_view(bytes).substr(0, cut)),
                     WireError);
    }
}

TEST(WireFrame, EveryBitFlipIsDetected)
{
    const std::string clean = EncodeFrame(SampleFrame());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bytes = clean;
            bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
            SCOPED_TRACE("flip byte " + std::to_string(i) + " bit " +
                         std::to_string(bit));
            // Any single-bit flip must be rejected: header fields are
            // each explicitly validated, and everything else is under
            // the trailing digest.
            EXPECT_THROW(DecodeFrame(bytes), WireError);
        }
    }
}

TEST(WireFrame, RandomGarbageNeverCrashes)
{
    Rng rng = Rng::ForStream(2026, "wire-fuzz-garbage");
    for (int round = 0; round < 2000; ++round) {
        const std::size_t n = rng.NextU64() % 200;
        std::string bytes(n, '\0');
        for (char& c : bytes) c = static_cast<char>(rng.NextU64() & 0xff);
        try {
            (void)DecodeFrame(bytes);
        } catch (const WireError&) {
            // expected fate for garbage
        }
    }
}

TEST(WireFrame, MutatedRealFramesNeverCrash)
{
    Rng rng = Rng::ForStream(2026, "wire-fuzz-mutate");
    const std::string clean = EncodeFrame(SampleFrame());
    for (int round = 0; round < 2000; ++round) {
        std::string bytes = clean;
        const int mutations = 1 + static_cast<int>(rng.NextU64() % 4);
        for (int m = 0; m < mutations; ++m) {
            bytes[rng.NextU64() % bytes.size()] =
                static_cast<char>(rng.NextU64() & 0xff);
        }
        if (rng.NextU64() % 4 == 0) {
            bytes.resize(rng.NextU64() % (bytes.size() + 1));
        }
        try {
            const Frame f = DecodeFrame(bytes);
            // A mutation that survives must be the identity (all
            // mutated bytes happened to equal the originals).
            EXPECT_EQ(EncodeFrame(f), clean);
        } catch (const WireError&) {
        }
    }
}

TEST(WireFrame, AppendFrameAddsExactlyTheEncodedFrame)
{
    // Every Payload alternative, with strings empty and not, optionals
    // set and unset, as requests with a target and responses without.
    std::vector<Payload> messages = SampleMessages();
    for (const Payload& message : EmptyOptionalMessages()) {
        messages.push_back(message);
    }
    messages.emplace_back(api::StatusResult{});
    std::vector<bool> seen(std::variant_size_v<Payload>, false);

    std::string buffer = "bytes already queued";
    std::uint64_t call_id = 1;
    for (const Payload& message : messages) {
        SCOPED_TRACE(MessageTypeName(TypeOf(message)));
        seen[message.index()] = true;
        Frame frame;
        frame.kind = call_id % 2 == 1 ? FrameKind::kRequest
                                      : FrameKind::kResponse;
        frame.type = TypeOf(message);
        frame.epoch = 17;
        frame.call_id = call_id++;
        frame.target = frame.kind == FrameKind::kRequest ? "agent:sb0/rpp0/s4"
                                                         : "";
        frame.payload = EncodeBody(message);

        const std::string before = buffer;
        AppendFrame(buffer, frame.kind, frame.epoch, frame.call_id,
                    frame.target, &message);
        EXPECT_EQ(buffer, before + EncodeFrame(frame));
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_TRUE(seen[i]) << "Payload alternative " << i << " untested";
    }

    // An error frame: no body, the reason in `target`.
    Frame error;
    error.kind = FrameKind::kError;
    error.type = MessageType::kNone;
    error.epoch = 17;
    error.call_id = 9;
    error.target = "connection failed";
    const std::string before = buffer;
    AppendFrame(buffer, error.kind, error.epoch, error.call_id, error.target,
                nullptr);
    EXPECT_EQ(buffer, before + EncodeFrame(error));
}

TEST(WireFrame, ParseFrameViewsTheFrameBytes)
{
    const std::string bytes = EncodeFrame(SampleFrame());
    const FrameView view = ParseFrame(bytes);
    EXPECT_EQ(view.kind, FrameKind::kRequest);
    EXPECT_EQ(view.type, MessageType::kCapRequest);
    EXPECT_EQ(view.epoch, 17u);
    EXPECT_EQ(view.call_id, 0x123456789abcULL);
    EXPECT_EQ(view.target, "agent:sb0/rpp0/s4");
    EXPECT_EQ(view.payload, SampleFrame().payload);
    // Views, not copies: both sections point into `bytes`.
    EXPECT_EQ(view.target.data(), bytes.data() + kFrameFixedHeaderBytes + 8);
    EXPECT_EQ(view.payload.data(),
              view.target.data() + view.target.size() + 8);
}

/** Lower-case hex of `bytes`, two digits per byte. */
std::string Hex(std::string_view bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const char c : bytes) {
        hex += kDigits[static_cast<std::uint8_t>(c) >> 4];
        hex += kDigits[static_cast<std::uint8_t>(c) & 0xf];
    }
    return hex;
}

/**
 * The DYNW v2 frame of each SampleMessages() entry, in order, and last
 * of an error frame, as laid out by FrozenFrame(). Recorded from the
 * Archive-based codec that preceded the field-list one; any change to
 * them is a wire change and needs a new wire version.
 */
constexpr const char* kFrozenFrames[] = {
    // PowerReadRequest
    "44594e5747000000020000000100080706050403020164000000000000001100"
    "0000000000006167656e743a7362302f727070302f73340000000000000000a8"
    "d13a12f7efa0e3",
    // PowerReadResult
    "44594e57bd000000020000000201080706050403020165000000000000000000"
    "0000000000008700000000000000010118000000000000006c61737420616767"
    "7265676174696f6e20696e76616c696411000000000000006167656e743a7362"
    "302f727070332f73370000000000c879400102010000000000e0754000000000"
    "00286940000000000000564000000000006057400000000000c03d4000000000"
    "008ed240000000000070c74001000000000017d140cfc979baad8913e2",
    // CapRequest
    "44594e5750000000020000000300080706050403020166000000000000001100"
    "0000000000006167656e743a7362302f727070302f7334090000000000000001"
    "000000000030714068a0ce7697aa0700",
    // CapResult
    "44594e574f000000020000000401080706050403020167000000000000000000"
    "000000000000190000000000000002000f0000000000000062656c6f7720534c"
    "4120666c6f6f72193b379b7cc33a44",
    // ContractUpdate
    "44594e5760000000020000000500080706050403020168000000000000001100"
    "0000000000006167656e743a7362302f727070302f7334190000000000000001"
    "000000000094d140fecaefbeadde00002a00000000000000de86da1207bf6282",
    // TuneEstimate
    "44594e574f000000020000000600080706050403020169000000000000001100"
    "0000000000006167656e743a7362302f727070302f7334080000000000000000"
    "0000000000f13fe4b21f6e3899176f",
    // HealthProbe
    "44594e574700000002000000070008070605040302016a000000000000001100"
    "0000000000006167656e743a7362302f727070302f73340000000000000000fc"
    "116d4c5c2fced0",
    // HealthResult
    "44594e575300000002000000080108070605040302016b000000000000000000"
    "0000000000001d00000000000000030013000000000000006e6f206661696c6f"
    "766572206d616e616765721c6cd6a35ee2af6b",
    // StatusRequest
    "44594e574700000002000000090008070605040302016c000000000000001100"
    "0000000000006167656e743a7362302f727070302f733400000000000000009b"
    "192596807e3315",
    // StatusResult
    "44594e579d000000020000000a0108070605040302016d000000000000000000"
    "0000000000006700000000000000010118000000000000006c61737420616767"
    "7265676174696f6e20696e76616c69640c0000000000000063746c3a7362302f"
    "7270703008000000000000006465677261646564d20400000000000007000000"
    "000000000300000000000000000000000000d24001fd35c77582db4a07",
    // error frame
    "44594e5747000000020000000002080706050403020109000000000000001100"
    "000000000000636f6e6e656374696f6e206661696c656400000000000000000d"
    "1d420462e83ee0",
};

/** The frame kFrozenFrames[i] holds: results go out as responses with
 *  no target, everything else as a request to an agent. */
Frame FrozenFrame(std::size_t i, const Payload& message)
{
    Frame frame;
    const MessageType type = TypeOf(message);
    const bool result = type == MessageType::kPowerReadResult ||
                        type == MessageType::kCapResult ||
                        type == MessageType::kHealthResult ||
                        type == MessageType::kStatusResult;
    frame.kind = result ? FrameKind::kResponse : FrameKind::kRequest;
    frame.type = type;
    frame.epoch = 0x0102030405060708ULL;
    frame.call_id = 100 + i;
    frame.target = result ? "" : "agent:sb0/rpp0/s4";
    frame.payload = EncodeBody(message);
    return frame;
}

TEST(WireFrozen, EveryMessageTypeKeepsItsBytes)
{
    const std::vector<Payload> messages = SampleMessages();
    ASSERT_EQ(messages.size() + 1, std::size(kFrozenFrames));
    std::string queued = "bytes already queued";
    for (std::size_t i = 0; i < messages.size(); ++i) {
        const Payload& message = messages[i];
        SCOPED_TRACE(MessageTypeName(TypeOf(message)));
        const Frame frame = FrozenFrame(i, message);
        const std::string encoded = EncodeFrame(frame);
        EXPECT_EQ(Hex(encoded), kFrozenFrames[i]);

        const std::size_t start = queued.size();
        AppendFrame(queued, frame.kind, frame.epoch, frame.call_id,
                    frame.target, &message);
        EXPECT_EQ(Hex(std::string_view(queued).substr(start)),
                  kFrozenFrames[i]);

        const Frame decoded = DecodeFrame(encoded);
        EXPECT_EQ(decoded.kind, frame.kind);
        EXPECT_EQ(decoded.type, frame.type);
        EXPECT_EQ(decoded.epoch, frame.epoch);
        EXPECT_EQ(decoded.call_id, frame.call_id);
        EXPECT_EQ(decoded.target, frame.target);
        EXPECT_EQ(EncodeBody(DecodeBody(decoded.type, decoded.payload)),
                  frame.payload);
    }
    EXPECT_EQ(queued.substr(0, 20), "bytes already queued");

    Frame error;
    error.kind = FrameKind::kError;
    error.type = MessageType::kNone;
    error.epoch = 0x0102030405060708ULL;
    error.call_id = 9;
    error.target = "connection failed";
    const std::size_t start = queued.size();
    AppendFrame(queued, error.kind, error.epoch, error.call_id, error.target,
                nullptr);
    EXPECT_EQ(Hex(std::string_view(queued).substr(start)),
              kFrozenFrames[messages.size()]);
    EXPECT_EQ(Hex(EncodeFrame(error)), kFrozenFrames[messages.size()]);
    const Frame decoded = DecodeFrame(EncodeFrame(error));
    EXPECT_EQ(decoded.kind, FrameKind::kError);
    EXPECT_EQ(decoded.target, "connection failed");
    EXPECT_TRUE(decoded.payload.empty());
}

/** The little-endian u64 trailer of a frame. */
std::uint64_t Trailer(std::string_view frame)
{
    return ArchiveReader(frame.substr(frame.size() - 8)).U64();
}

/** `frame` as wire version 1 sealed it: version 1, FNV-1a trailer. */
std::string AsVersionOne(std::string frame)
{
    frame[8] = 1;
    frame[9] = frame[10] = frame[11] = 0;
    const std::size_t end = frame.size() - 8;
    const std::uint64_t digest =
        Fnv1a64(std::string_view(frame).substr(0, end));
    for (std::size_t i = 0; i < 8; ++i) {
        frame[end + i] = static_cast<char>(digest >> (8 * i));
    }
    return frame;
}

TEST(WireFrame, TrailerIsXxh64OfEveryPrecedingByte)
{
    const Payload read = SampleMessages()[1];
    std::string queued = "bytes already queued";
    const std::size_t start = queued.size();
    AppendFrame(queued, FrameKind::kResponse, 3, 1, "", &read);
    for (const std::string& frame :
         {EncodeFrame(SampleFrame()), queued.substr(start)}) {
        ArchiveReader header(frame);
        EXPECT_EQ(header.U32(), kWireMagic);
        EXPECT_EQ(header.U32(), frame.size());
        EXPECT_EQ(header.U32(), 2u);
        // frame_len and the version are under the digest too.
        EXPECT_EQ(Trailer(frame),
                  Xxh64(std::string_view(frame).substr(0, frame.size() - 8)));
    }
}

TEST(WireFrame, VersionOneFrameIsRefused)
{
    const std::string v1 = AsVersionOne(EncodeFrame(SampleFrame()));
    try {
        (void)ParseFrame(v1);
        FAIL() << "v1 frame accepted";
    } catch (const WireError& e) {
        // There is no v1 path: an FNV-1a trailer is a corrupt digest.
        EXPECT_EQ(e.offset(), v1.size() - 8);
        EXPECT_NE(std::string(e.what()).find("digest mismatch"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ArchiveReaderBounds, LengthPrefixNearTwoToThe64Throws)
{
    // 20 bytes whose length prefix is 2^64 - 4. `pos + n` wraps to 4,
    // so a check of it would pass and move the reader backwards.
    std::string bytes(20, 'x');
    const std::uint64_t n = ~std::uint64_t{0} - 3;
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[i] = static_cast<char>(n >> (8 * i));
    }
    ArchiveReader reader(bytes);
    EXPECT_THROW(reader.StrView(), std::runtime_error);
    EXPECT_EQ(reader.pos(), 8u);
    EXPECT_EQ(reader.remaining(), 12u);
}

TEST(WireFrame, TargetLengthNearTwoToThe64IsRefused)
{
    // A 54-byte frame with epoch 24 and a target length of 2^64 - 24,
    // sealed with a valid digest as any peer can. With a wrapping
    // bounds check its target would view bytes 38-53, digest included,
    // and its payload bytes 22-45.
    std::string frame(54, '\0');
    auto put = [&frame](std::size_t at, std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i) {
            frame[at + i] = static_cast<char>(v >> (8 * i));
        }
    };
    put(0, kWireMagic, 4);
    put(4, frame.size(), 4);
    put(8, kWireVersion, 4);
    frame[12] = static_cast<char>(MessageType::kPowerReadRequest);
    frame[13] = static_cast<char>(FrameKind::kRequest);
    put(14, 24, 8);  // epoch
    put(22, 1, 8);   // call id
    put(30, ~std::uint64_t{0} - 23, 8);
    put(46, Xxh64(std::string_view(frame).substr(0, 46)), 8);

    try {
        (void)ParseFrame(frame);
        FAIL() << "frame with a wrapping target length accepted";
    } catch (const WireError& e) {
        EXPECT_EQ(e.offset(), 38u);
        EXPECT_NE(std::string(e.what()).find("frame sections truncated"),
                  std::string::npos)
            << e.what();
    }
    FrameReader reader;
    reader.Feed(frame);
    ASSERT_TRUE(reader.HasFrame());
    EXPECT_THROW(reader.NextView(), WireError);
    EXPECT_TRUE(reader.poisoned());
}

TEST(WireReader, ReassemblesFramesUnderArbitraryChunking)
{
    std::string stream;
    constexpr int kFrames = 25;
    for (int i = 0; i < kFrames; ++i) {
        Frame frame = SampleFrame();
        frame.call_id = static_cast<std::uint64_t>(i + 1);
        stream += EncodeFrame(frame);
    }

    Rng rng = Rng::ForStream(2026, "wire-reader-chunks");
    FrameReader reader;
    std::vector<std::uint64_t> seen;
    std::size_t pos = 0;
    while (pos < stream.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng.NextU64() % 97, stream.size() - pos);
        reader.Feed(std::string_view(stream).substr(pos, n));
        pos += n;
        while (reader.HasFrame()) seen.push_back(reader.Next().call_id);
    }
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
        EXPECT_EQ(seen[i], static_cast<std::uint64_t>(i + 1));
    }
    EXPECT_EQ(reader.bytes_consumed(), stream.size());
    EXPECT_FALSE(reader.poisoned());
}

TEST(WireReader, BadMagicPoisonsImmediately)
{
    FrameReader reader;
    EXPECT_THROW(reader.Feed("XXXXXXXX"), WireError);
    EXPECT_TRUE(reader.poisoned());
    // A poisoned reader stays poisoned — stream sync is unrecoverable.
    EXPECT_THROW(reader.Feed(EncodeFrame(SampleFrame())), WireError);
}

TEST(WireReader, OversizedLengthPoisonsWithoutBuffering)
{
    std::string header;
    const std::uint32_t magic = kWireMagic;
    const std::uint32_t absurd = kMaxFrameBytes + 1;
    header.append(reinterpret_cast<const char*>(&magic), 4);
    header.append(reinterpret_cast<const char*>(&absurd), 4);
    FrameReader reader;
    EXPECT_THROW(reader.Feed(header), WireError);
    EXPECT_TRUE(reader.poisoned());
}

TEST(WireReader, TornFrameIsHeldNotDelivered)
{
    const std::string bytes = EncodeFrame(SampleFrame());
    FrameReader reader;
    reader.Feed(std::string_view(bytes).substr(0, bytes.size() - 1));
    EXPECT_FALSE(reader.HasFrame());
    EXPECT_FALSE(reader.poisoned());
    reader.Feed(std::string_view(bytes).substr(bytes.size() - 1));
    ASSERT_TRUE(reader.HasFrame());
    EXPECT_EQ(reader.Next().target, "agent:sb0/rpp0/s4");
}

TEST(WireReader, OneChunkOfManyFramesComesOutInOrder)
{
    // A leaf's worth of replies arriving in one read.
    constexpr std::uint64_t kFrames = 240;
    const Payload read = SampleMessages()[1];
    std::string stream;
    for (std::uint64_t id = 1; id <= kFrames; ++id) {
        AppendFrame(stream, FrameKind::kResponse, 3, id, "", &read);
    }
    const std::size_t frame_bytes = stream.size() / kFrames;
    const std::string body = EncodeBody(read);

    FrameReader reader;
    reader.Feed(stream);
    std::uint64_t next = 1;
    while (reader.HasFrame()) {
        const FrameView frame = reader.NextView();
        EXPECT_EQ(frame.call_id, next);
        EXPECT_EQ(frame.type, MessageType::kPowerReadResult);
        EXPECT_EQ(frame.payload, body);
        EXPECT_EQ(reader.bytes_consumed(), next * frame_bytes);
        ++next;
    }
    EXPECT_EQ(next, kFrames + 1);
    EXPECT_EQ(reader.bytes_consumed(), stream.size());
    EXPECT_FALSE(reader.poisoned());

    // The next Feed drops the consumed frames and the stream carries on.
    reader.Feed(std::string_view(stream).substr(0, frame_bytes));
    ASSERT_TRUE(reader.HasFrame());
    EXPECT_EQ(reader.Next().call_id, 1u);
    EXPECT_EQ(reader.bytes_consumed(), stream.size() + frame_bytes);
}

TEST(WireReader, BadMagicAfterGoodFramesReportsItsStreamOffset)
{
    constexpr int kGood = 7;
    std::string stream;
    for (int i = 0; i < kGood; ++i) stream += EncodeFrame(SampleFrame());

    FrameReader reader;
    reader.Feed(stream);
    for (int i = 0; i < kGood; ++i) {
        ASSERT_TRUE(reader.HasFrame());
        EXPECT_EQ(reader.Next().target, "agent:sb0/rpp0/s4");
    }
    // The consumed frames are gone from the buffer by now, but the
    // offset still counts them.
    try {
        reader.Feed("XXXXXXXX");
        FAIL() << "bad magic accepted";
    } catch (const WireError& e) {
        EXPECT_EQ(e.offset(), stream.size());
    }
    EXPECT_TRUE(reader.poisoned());
}

TEST(WireReader, GoodFramesBeforeGarbageAreDeliveredFirst)
{
    // Two good frames and a bad header arrive in one read. Both frames
    // come out; the garbage is reported by the next call, at its own
    // stream offset.
    Frame first = SampleFrame();
    first.call_id = 1;
    Frame second = SampleFrame();
    second.call_id = 2;
    const std::string good = EncodeFrame(first) + EncodeFrame(second);

    FrameReader reader;
    reader.Feed(good + "XXXXXXXX");
    ASSERT_TRUE(reader.HasFrame());
    EXPECT_EQ(reader.Next().call_id, 1u);
    ASSERT_TRUE(reader.HasFrame());
    EXPECT_EQ(reader.NextView().call_id, 2u);
    EXPECT_EQ(reader.bytes_consumed(), good.size());

    // HasFrame stays true so a dispatch loop reaches the error in the
    // same pass instead of waiting for more input.
    ASSERT_TRUE(reader.HasFrame());
    try {
        reader.NextView();
        FAIL() << "bad magic accepted";
    } catch (const WireError& e) {
        EXPECT_EQ(e.offset(), good.size());
        EXPECT_NE(std::string(e.what()).find("bad magic on stream"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(reader.HasFrame());
    EXPECT_THROW(reader.Feed(EncodeFrame(first)), WireError);
}

TEST(WireReader, VersionOneFrameIsRefusedAtItsStreamOffset)
{
    // A v1 peer's frame behind a v2 one: the v2 frame comes out, and
    // the v1 frame fails at its trailer's offset in the stream.
    const std::string good = EncodeFrame(SampleFrame());
    const std::string v1 = AsVersionOne(good);
    FrameReader reader;
    reader.Feed(good + v1);
    ASSERT_TRUE(reader.HasFrame());
    EXPECT_EQ(reader.Next().target, "agent:sb0/rpp0/s4");
    ASSERT_TRUE(reader.HasFrame());
    try {
        (void)reader.NextView();
        FAIL() << "v1 frame accepted";
    } catch (const WireError& e) {
        EXPECT_EQ(e.offset(), good.size() + v1.size() - 8);
        EXPECT_NE(std::string(e.what()).find("digest mismatch"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(reader.poisoned());
    EXPECT_EQ(reader.bytes_consumed(), good.size());
}

TEST(WireReader, DeferredHeaderErrorIsThrownByTheNextFeed)
{
    std::string bytes = EncodeFrame(SampleFrame());
    const std::size_t good = bytes.size();
    const std::uint32_t magic = kWireMagic;
    const std::uint32_t absurd = kMaxFrameBytes + 1;
    bytes.append(reinterpret_cast<const char*>(&magic), 4);
    bytes.append(reinterpret_cast<const char*>(&absurd), 4);

    FrameReader reader;
    reader.Feed(bytes);
    EXPECT_EQ(reader.Next().target, "agent:sb0/rpp0/s4");
    try {
        reader.Feed("more");
        FAIL() << "oversized frame length accepted";
    } catch (const WireError& e) {
        EXPECT_EQ(e.offset(), good + 4);
        EXPECT_NE(std::string(e.what()).find("frame length"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(reader.poisoned());
}

}  // namespace
}  // namespace dynamo::rpc::wire
