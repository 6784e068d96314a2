#include "replay/journal.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/archive.h"

namespace dynamo::replay {
namespace {

void
EncodeCycle(Archive& ar, const CycleRecord& rec)
{
    ar.U8(static_cast<std::uint8_t>(RecordType::kCycle));
    ar.U64(rec.cycle);
    ar.I64(rec.time);
    ar.U64(rec.rpc_hash);
    ar.U64(rec.kernel_hash);
    ar.U64(rec.spans_missed);
    ar.U64(rec.spans.size());
    for (const auto& span : rec.spans) telemetry::WriteSpan(ar, span);
}

CycleRecord
DecodeCycle(ArchiveReader& ar)
{
    CycleRecord rec;
    rec.cycle = ar.U64();
    rec.time = ar.I64();
    rec.rpc_hash = ar.U64();
    rec.kernel_hash = ar.U64();
    rec.spans_missed = ar.U64();
    const std::uint64_t n = ar.U64();
    // Every span occupies at least one byte, so a count exceeding the
    // remaining bytes is corruption — reject it before reserve() turns
    // a flipped length bit into a multi-gigabyte allocation.
    if (n > ar.remaining()) {
        throw std::runtime_error("span count " + std::to_string(n) +
                                 " exceeds remaining " +
                                 std::to_string(ar.remaining()) + " bytes");
    }
    rec.spans.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        rec.spans.push_back(telemetry::ReadSpan(ar));
    }
    return rec;
}

const char*
RecordTypeName(RecordType type)
{
    switch (type) {
      case RecordType::kCycle: return "cycle";
      case RecordType::kCheckpoint: return "checkpoint";
      case RecordType::kFault: return "fault";
      case RecordType::kEnd: return "end";
      case RecordType::kReconfig: return "reconfig";
    }
    return "unknown";
}

void
EncodeCheckpoint(Archive& ar, const CheckpointRecord& rec)
{
    ar.U8(static_cast<std::uint8_t>(RecordType::kCheckpoint));
    ar.U64(rec.cycle);
    ar.I64(rec.time);
    ar.U64(rec.digest);
    ar.Str(rec.state);
}

CheckpointRecord
DecodeCheckpoint(ArchiveReader& ar)
{
    CheckpointRecord rec;
    rec.cycle = ar.U64();
    rec.time = ar.I64();
    rec.digest = ar.U64();
    rec.state = ar.Str();
    return rec;
}

}  // namespace

const CheckpointRecord*
Journal::CheckpointAtCycle(std::uint64_t cycle) const
{
    for (const auto& cp : checkpoints) {
        if (cp.cycle == cycle) return &cp;
    }
    return nullptr;
}

std::string
EncodeJournal(const Journal& journal)
{
    Archive ar;
    for (const char c : kJournalMagic) ar.U8(static_cast<std::uint8_t>(c));
    // Always encode the current format; `journal.version` records what
    // a *decoded* file declared, not what re-encoding should emit.
    ar.U32(kJournalVersion);
    ar.Str(journal.spec_text);
    ar.Str(journal.scenario);
    ar.I64(journal.cycle_period);
    ar.U64(journal.checkpoint_every);
    ar.Bool(journal.invariants_checked);

    // Records interleave in run order: cycles ascending, each
    // checkpoint immediately after its cycle record, faults and
    // reconfigurations by time (reconfigs after faults at a tie —
    // faults fire at arbitrary times, commits only at barriers).
    std::size_t cp = 0;
    std::size_t fault = 0;
    std::size_t reconfig = 0;
    for (const auto& cycle : journal.cycles) {
        while (fault < journal.faults.size() &&
               journal.faults[fault].time <= cycle.time) {
            const auto& f = journal.faults[fault++];
            ar.U8(static_cast<std::uint8_t>(RecordType::kFault));
            ar.I64(f.time);
            ar.Str(f.description);
        }
        while (reconfig < journal.reconfigs.size() &&
               journal.reconfigs[reconfig].time <= cycle.time) {
            const auto& r = journal.reconfigs[reconfig++];
            ar.U8(static_cast<std::uint8_t>(RecordType::kReconfig));
            ar.U64(r.epoch);
            ar.I64(r.time);
            ar.Str(r.description);
        }
        EncodeCycle(ar, cycle);
        while (cp < journal.checkpoints.size() &&
               journal.checkpoints[cp].cycle <= cycle.cycle) {
            EncodeCheckpoint(ar, journal.checkpoints[cp++]);
        }
    }
    while (fault < journal.faults.size()) {
        const auto& f = journal.faults[fault++];
        ar.U8(static_cast<std::uint8_t>(RecordType::kFault));
        ar.I64(f.time);
        ar.Str(f.description);
    }
    while (reconfig < journal.reconfigs.size()) {
        const auto& r = journal.reconfigs[reconfig++];
        ar.U8(static_cast<std::uint8_t>(RecordType::kReconfig));
        ar.U64(r.epoch);
        ar.I64(r.time);
        ar.Str(r.description);
    }
    while (cp < journal.checkpoints.size()) {
        EncodeCheckpoint(ar, journal.checkpoints[cp++]);
    }
    ar.U8(static_cast<std::uint8_t>(RecordType::kEnd));

    // Version 2: trailing integrity digest over every byte written so
    // far. Capture before the U64 below folds the digest into itself.
    const std::uint64_t digest = ar.digest();
    ar.U64(digest);
    return ar.TakeBytes();
}

Journal
DecodeJournal(std::string_view bytes)
{
    // Magic + version come first; anything shorter cannot be a journal.
    constexpr std::size_t kHeaderBytes = sizeof(kJournalMagic) + 4;
    if (bytes.size() < kHeaderBytes) {
        throw std::runtime_error(
            "replay journal: truncated: " + std::to_string(bytes.size()) +
            " bytes, need at least " + std::to_string(kHeaderBytes) +
            " for magic + version");
    }
    for (std::size_t i = 0; i < sizeof(kJournalMagic); ++i) {
        if (bytes[i] != kJournalMagic[i]) {
            throw std::runtime_error(
                "replay journal: bad magic at offset " + std::to_string(i) +
                " (not a DYNJRNL1 file)");
        }
    }

    ArchiveReader header(bytes.substr(sizeof(kJournalMagic), 4));
    const std::uint32_t version = header.U32();
    if (version != 1 && version != kJournalVersion) {
        throw std::runtime_error("replay journal: unsupported version " +
                                 std::to_string(version));
    }

    std::string_view body = bytes;
    if (version >= 2) {
        // Verify the trailing digest before trusting a single record:
        // any truncation or bit flip anywhere in the file surfaces
        // here, with the mismatch localized to the whole file rather
        // than wherever the parse happened to derail.
        if (bytes.size() < kHeaderBytes + 8) {
            throw std::runtime_error(
                "replay journal: truncated: " + std::to_string(bytes.size()) +
                " bytes, version-2 journals end with an 8-byte digest");
        }
        const std::size_t digest_at = bytes.size() - 8;
        const std::uint64_t expected = Fnv1a64(bytes.substr(0, digest_at));
        ArchiveReader tail(bytes.substr(digest_at));
        const std::uint64_t stored = tail.U64();
        if (stored != expected) {
            char hex[64];
            std::snprintf(hex, sizeof hex, "%016llx, computed %016llx",
                          static_cast<unsigned long long>(stored),
                          static_cast<unsigned long long>(expected));
            throw std::runtime_error(
                "replay journal: integrity digest mismatch over " +
                std::to_string(digest_at) + " bytes: stored " + hex +
                " (file truncated or corrupted)");
        }
        body = bytes.substr(0, digest_at);
    }

    ArchiveReader ar(body);
    for (std::size_t i = 0; i < sizeof(kJournalMagic); ++i) ar.U8();
    Journal journal;
    journal.version = ar.U32();
    try {
        journal.spec_text = ar.Str();
        journal.scenario = ar.Str();
        journal.cycle_period = ar.I64();
        journal.checkpoint_every = ar.U64();
        journal.invariants_checked = ar.Bool();
    } catch (const std::exception& e) {
        throw std::runtime_error(
            "replay journal: header at offset " + std::to_string(ar.pos()) +
            ": " + e.what());
    }

    bool ended = false;
    std::size_t record = 0;
    while (!ended) {
        const std::size_t at = ar.pos();
        RecordType type{};  // 0 = "unknown" if the tag read itself throws
        try {
            type = static_cast<RecordType>(ar.U8());
            switch (type) {
              case RecordType::kCycle:
                journal.cycles.push_back(DecodeCycle(ar));
                break;
              case RecordType::kCheckpoint:
                journal.checkpoints.push_back(DecodeCheckpoint(ar));
                break;
              case RecordType::kFault: {
                FaultRecord f;
                f.time = ar.I64();
                f.description = ar.Str();
                journal.faults.push_back(std::move(f));
                break;
              }
              case RecordType::kReconfig: {
                ReconfigRecord r;
                r.epoch = ar.U64();
                r.time = ar.I64();
                r.description = ar.Str();
                journal.reconfigs.push_back(std::move(r));
                break;
              }
              case RecordType::kEnd:
                ended = true;
                break;
              default:
                throw std::runtime_error(
                    "unknown record type " +
                    std::to_string(static_cast<unsigned>(type)));
            }
        } catch (const std::exception& e) {
            throw std::runtime_error(
                "replay journal: record " + std::to_string(record) + " (" +
                RecordTypeName(type) + ") at offset " + std::to_string(at) +
                ": " + e.what());
        }
        ++record;
    }
    return journal;
}

void
WriteJournalFile(const std::string& path, const Journal& journal)
{
    const std::string bytes = EncodeJournal(journal);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open journal for write: " + path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("journal write failed: " + path);
}

Journal
ReadJournalFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open journal: " + path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return DecodeJournal(bytes);
}

}  // namespace dynamo::replay
