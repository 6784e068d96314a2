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
    // The one tag without a message (error frames) decodes to nothing.
    EXPECT_THROW(DecodeBody(MessageType::kNone, ""), WireError);
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
