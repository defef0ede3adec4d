#include "fame/snapshot_io.h"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/crc32.h"
#include "util/file_io.h"

namespace strober {
namespace fame {

namespace {

using util::ErrorCode;
using util::errorf;
using util::Result;
using util::Status;

constexpr uint64_t kMagicV1 = 0x53545242534e5031ull; // "STRBSNP1"
constexpr uint64_t kMagicV2 = 0x53545242534e5032ull; // "STRBSNP2"

// Dimension sanity bound: a corrupted count would otherwise drive a
// multi-gigabyte allocation before the stream underruns.
constexpr uint64_t kMaxDim = 1ull << 32;

/** Streams integers out while folding their bytes into a section CRC. */
class SectionWriter
{
  public:
    explicit SectionWriter(std::ostream &out,
                           std::vector<uint32_t> *crcLog = nullptr)
        : out(out), crcLog(crcLog)
    {
    }

    void
    u64(uint64_t v)
    {
        char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<char>(v >> (8 * i));
        out.write(bytes, 8);
        crc = util::crc32Update(crc, bytes, 8);
    }

    void
    vec(const std::vector<uint64_t> &v)
    {
        u64(v.size());
        for (uint64_t x : v)
            u64(x);
    }

    /** Close the current section: write its CRC and start the next. */
    void
    endSection()
    {
        uint32_t c = crc;
        char bytes[4];
        for (int i = 0; i < 4; ++i)
            bytes[i] = static_cast<char>(c >> (8 * i));
        out.write(bytes, 4);
        if (crcLog)
            crcLog->push_back(c);
        crc = 0;
    }

  private:
    std::ostream &out;
    std::vector<uint32_t> *crcLog;
    uint32_t crc = 0;
};

/**
 * Streams integers in while folding their bytes into a section CRC.
 * Truncation sets a sticky failed flag (checked at section ends) so the
 * decode logic stays linear instead of branching on every read.
 */
class SectionReader
{
  public:
    explicit SectionReader(std::istream &in) : in(in) {}

    uint64_t
    u64()
    {
        char bytes[8];
        if (!in.read(bytes, 8)) {
            failed = true;
            return 0;
        }
        crc = util::crc32Update(crc, bytes, 8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i]))
                 << (8 * i);
        return v;
    }

    /** Verify the section CRC written by SectionWriter::endSection. */
    Status
    endSection(const char *what)
    {
        char bytes[4];
        if (failed || !in.read(bytes, 4))
            return errorf(ErrorCode::Corrupt,
                          "snapshot stream truncated in %s section", what);
        uint32_t stored = 0;
        for (int i = 0; i < 4; ++i)
            stored |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[i]))
                      << (8 * i);
        if (stored != crc) {
            return errorf(ErrorCode::Corrupt,
                          "snapshot %s section CRC mismatch "
                          "(stored 0x%08x, computed 0x%08x)",
                          what, stored, crc);
        }
        crc = 0;
        return Status::ok();
    }

    bool truncated() const { return failed; }

  private:
    std::istream &in;
    uint32_t crc = 0;
    bool failed = false;
};

} // namespace

namespace {

Status
writeSnapshotLogged(std::ostream &out, const ScanChains &chains,
                    const ReplayableSnapshot &snap,
                    std::vector<uint32_t> *crcLog)
{
    if (!snap.complete) {
        return errorf(ErrorCode::InvalidArgument,
                      "refusing to serialize an incomplete snapshot "
                      "(trace not finished)");
    }

    SectionWriter w(out, crcLog);

    // Header section.
    w.u64(kMagicV2);
    w.u64(kSnapshotFormatVersion);
    w.u64(chains.totalBits());
    w.u64(snap.state.cycle);
    w.endSection();

    // State as the scan-chain bit stream.
    w.vec(chains.encode(snap.state));
    w.endSection();

    // Input trace.
    w.u64(snap.inputTrace.size());
    w.u64(snap.inputTrace.empty() ? 0 : snap.inputTrace[0].size());
    for (const auto &cycleTokens : snap.inputTrace)
        for (uint64_t t : cycleTokens)
            w.u64(t);
    w.endSection();

    // Output trace.
    w.u64(snap.outputTrace.empty() ? 0 : snap.outputTrace[0].size());
    for (const auto &cycleTokens : snap.outputTrace)
        for (uint64_t t : cycleTokens)
            w.u64(t);
    w.endSection();

    // Retiming histories.
    w.u64(snap.retimeHistory.size());
    for (const auto &region : snap.retimeHistory) {
        w.u64(region.size());
        w.u64(region.empty() ? 0 : region[0].size());
        for (const auto &cycleVals : region)
            for (uint64_t v : cycleVals)
                w.u64(v);
    }
    w.endSection();

    out.flush();
    if (!out) {
        return errorf(ErrorCode::IoError,
                      "snapshot write failed (stream error; disk full?)");
    }
    return Status::ok();
}

} // namespace

Status
writeSnapshot(std::ostream &out, const ScanChains &chains,
              const ReplayableSnapshot &snap)
{
    return writeSnapshotLogged(out, chains, snap, nullptr);
}

Result<SnapshotDigest>
snapshotDigest(const ScanChains &chains, const ReplayableSnapshot &snap)
{
    std::ostringstream buf(std::ios::binary);
    std::vector<uint32_t> crcs;
    Status st = writeSnapshotLogged(buf, chains, snap, &crcs);
    if (!st.isOk())
        return st;
    if (crcs.size() != SnapshotDigest::kSections) {
        return errorf(ErrorCode::InvalidArgument,
                      "snapshot serialized to %zu sections, format has %zu",
                      crcs.size(), SnapshotDigest::kSections);
    }
    SnapshotDigest digest;
    for (size_t i = 0; i < SnapshotDigest::kSections; ++i)
        digest.section[i] = crcs[i];
    return digest;
}

Result<ReplayableSnapshot>
readSnapshot(std::istream &in, const ScanChains &chains)
{
    SectionReader r(in);

    // Header section.
    uint64_t magic = r.u64();
    if (r.truncated())
        return errorf(ErrorCode::Corrupt, "snapshot stream truncated "
                                          "before the magic number");
    if (magic == kMagicV1) {
        return errorf(ErrorCode::Unsupported,
                      "version-1 snapshot (no integrity sections); "
                      "re-capture with this version");
    }
    if (magic != kMagicV2)
        return errorf(ErrorCode::Corrupt, "not a strober snapshot "
                                          "(bad magic)");
    uint64_t version = r.u64();
    if (version != kSnapshotFormatVersion) {
        return errorf(ErrorCode::Unsupported,
                      "unsupported snapshot version %llu (expected %u)",
                      (unsigned long long)version, kSnapshotFormatVersion);
    }
    uint64_t bits = r.u64();
    uint64_t cycle = r.u64();
    if (Status st = r.endSection("header"); !st.isOk())
        return st;
    if (bits != chains.totalBits()) {
        return errorf(ErrorCode::GeometryMismatch,
                      "snapshot was captured from a different design "
                      "(%llu state bits, design has %llu)",
                      (unsigned long long)bits,
                      (unsigned long long)chains.totalBits());
    }

    ReplayableSnapshot snap;

    // State section. The chain bit stream must be exactly the word count
    // the design's geometry implies; a shorter or longer vector means a
    // corrupt or hand-edited file (decode() would mis-slice every field
    // after the first missing word).
    uint64_t stateCount = r.u64();
    uint64_t expectWords = (bits + 63) / 64;
    if (stateCount != expectWords) {
        return errorf(ErrorCode::Corrupt,
                      "snapshot stream corrupt: state is %llu words, "
                      "design needs %llu",
                      (unsigned long long)stateCount,
                      (unsigned long long)expectWords);
    }
    std::vector<uint64_t> stateWords(stateCount);
    for (uint64_t &x : stateWords)
        x = r.u64();
    if (Status st = r.endSection("state"); !st.isOk())
        return st;
    snap.state = chains.decode(stateWords);
    snap.state.cycle = cycle;

    // Input trace section.
    uint64_t length = r.u64();
    uint64_t numInputs = r.u64();
    if (length > kMaxDim || numInputs > kMaxDim) {
        return errorf(ErrorCode::Corrupt,
                      "snapshot stream corrupt: input trace %llu x %llu",
                      (unsigned long long)length,
                      (unsigned long long)numInputs);
    }
    snap.inputTrace.resize(length);
    for (auto &cycleTokens : snap.inputTrace) {
        cycleTokens.resize(numInputs);
        for (uint64_t &t : cycleTokens)
            t = r.u64();
    }
    if (Status st = r.endSection("input-trace"); !st.isOk())
        return st;

    // Output trace section.
    uint64_t numOutputs = r.u64();
    if (numOutputs > kMaxDim) {
        return errorf(ErrorCode::Corrupt,
                      "snapshot stream corrupt: %llu outputs per cycle",
                      (unsigned long long)numOutputs);
    }
    snap.outputTrace.resize(length);
    for (auto &cycleTokens : snap.outputTrace) {
        cycleTokens.resize(numOutputs);
        for (uint64_t &t : cycleTokens)
            t = r.u64();
    }
    if (Status st = r.endSection("output-trace"); !st.isOk())
        return st;

    // Retiming history section.
    uint64_t regions = r.u64();
    if (regions > kMaxDim) {
        return errorf(ErrorCode::Corrupt,
                      "snapshot stream corrupt: %llu retime regions",
                      (unsigned long long)regions);
    }
    snap.retimeHistory.resize(regions);
    for (auto &region : snap.retimeHistory) {
        uint64_t depth = r.u64();
        uint64_t width = r.u64();
        if (depth > kMaxDim || width > kMaxDim) {
            return errorf(ErrorCode::Corrupt,
                          "snapshot stream corrupt: retime history "
                          "%llu x %llu",
                          (unsigned long long)depth,
                          (unsigned long long)width);
        }
        region.resize(depth);
        for (auto &cycleVals : region) {
            cycleVals.resize(width);
            for (uint64_t &v : cycleVals)
                v = r.u64();
        }
    }
    if (Status st = r.endSection("retime-history"); !st.isOk())
        return st;

    snap.complete = true;
    return snap;
}

Status
writeSnapshotFile(const std::string &path, const ScanChains &chains,
                  const ReplayableSnapshot &snap)
{
    std::ostringstream out(std::ios::binary);
    if (Status st = writeSnapshot(out, chains, snap); !st.isOk())
        return st;
    return util::writeFileAtomic(path, out.str());
}

Result<ReplayableSnapshot>
readSnapshotFile(const std::string &path, const ScanChains &chains)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return errorf(ErrorCode::IoError, "cannot open '%s'", path.c_str());
    Result<ReplayableSnapshot> result = readSnapshot(in, chains);
    if (!result.isOk()) {
        return Status(result.status().code(),
                      path + ": " + result.status().message());
    }
    return result;
}

} // namespace fame
} // namespace strober
