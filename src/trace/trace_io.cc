#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <set>

#if defined(__unix__) || defined(__APPLE__)
#define TSTREAM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tstream
{

namespace
{

constexpr char kMagic[4] = {'T', 'S', 'T', 'R'};

// ---- v1 (legacy) constants -------------------------------------------------

constexpr std::size_t kV1HeaderBytes = 28;
constexpr std::size_t kV1RecordBytes = 8 + 8 + 1 + 1 + 2;

// ---- v2 constants ----------------------------------------------------------

constexpr std::uint32_t kV2HeaderBytes = 72;
constexpr std::size_t kIndexEntryBytes = 24;
constexpr std::size_t kFieldEntryBytes = 8;

/** Field ids of the v2 per-field descriptor table. */
enum FieldId : std::uint8_t
{
    kFieldSeq = 1,
    kFieldBlock = 2,
    kFieldCpu = 3,
    kFieldCls = 4,
    kFieldFn = 5,
};

/** Field encodings of the v2 descriptor table. */
enum FieldEncoding : std::uint8_t
{
    kEncFixed = 0,       ///< raw little-endian, widthBits wide
    kEncDeltaVarint = 1, ///< zigzag delta from previous record, varint
    kEncVarint = 2,      ///< plain varint
};

/** The descriptor table v2 writers emit (and readers require). */
constexpr TraceField kV2Fields[] = {
    {kFieldSeq, kEncDeltaVarint, 64},
    {kFieldBlock, kEncDeltaVarint, 64},
    {kFieldCpu, kEncFixed, 8},
    {kFieldCls, kEncFixed, 8},
    {kFieldFn, kEncVarint, 16},
};
constexpr std::uint32_t kV2FieldCount =
    sizeof(kV2Fields) / sizeof(kV2Fields[0]);

/** Upper bound on an encoded record (varints maxed out). */
constexpr std::size_t kMaxEncodedRecordBytes = 10 + 10 + 1 + 1 + 3;

/** Lower bound on an encoded record (every column one byte). */
constexpr std::size_t kMinEncodedRecordBytes = 5;

/**
 * Upper bound on LZ4 expansion: one extension byte can add at most
 * 255 bytes of match output. Used to reject index entries whose
 * claimed record count could not fit in their stored bytes, so a
 * tiny crafted file cannot demand a huge decode allocation.
 */
std::uint64_t
maxRawBytes(std::uint64_t storedBytes)
{
    return 255 * storedBytes + 64;
}

/** Records per synthetic chunk when presenting a v1 file. */
constexpr std::uint64_t kV1ChunkRecords = 1 << 20;

/**
 * Writer-side ceiling on records per chunk: keeps even a worst-case
 * encoded chunk (25 B/record) far below the u32 chunk-size fields,
 * so oversized --chunk-records requests cannot wrap them.
 */
constexpr std::uint32_t kMaxChunkRecords = 1 << 24;

// ---- little-endian scalar helpers ------------------------------------------

void
putU16(std::vector<unsigned char> &out, std::uint16_t v)
{
    out.push_back(static_cast<unsigned char>(v & 0xFF));
    out.push_back(static_cast<unsigned char>(v >> 8));
}

void
putU32(std::vector<unsigned char> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void
putU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

// ---- varint / zigzag --------------------------------------------------------

void
putVarint(std::vector<unsigned char> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<unsigned char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<unsigned char>(v));
}

bool
getVarint(const unsigned char *&p, const unsigned char *end,
          std::uint64_t &v)
{
    v = 0;
    for (int shift = 0; p < end && shift < 64; shift += 7) {
        const unsigned char b = *p++;
        v |= std::uint64_t(b & 0x7F) << shift;
        if (!(b & 0x80))
            return true;
    }
    return false;
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return std::int64_t(v >> 1) ^ -std::int64_t(v & 1);
}

// ---- chunk payload encoding (column-major; see docs/TRACE_FORMAT.md) -------

std::vector<unsigned char>
encodeChunk(const MissRecord *recs, std::size_t n)
{
    std::vector<unsigned char> out;
    out.reserve(n * 6); // typical: small deltas
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        putVarint(out, zigzag(std::int64_t(recs[i].seq - prev)));
        prev = recs[i].seq;
    }
    prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        putVarint(out, zigzag(std::int64_t(recs[i].block - prev)));
        prev = recs[i].block;
    }
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(recs[i].cpu);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(recs[i].cls);
    for (std::size_t i = 0; i < n; ++i)
        putVarint(out, recs[i].fn);
    return out;
}

bool
decodeChunk(const unsigned char *p, std::size_t bytes, std::size_t n,
            std::vector<MissRecord> &out)
{
    const unsigned char *end = p + bytes;
    out.resize(n);
    std::uint64_t prev = 0, v = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!getVarint(p, end, v))
            return false;
        prev = std::uint64_t(std::int64_t(prev) + unzigzag(v));
        out[i].seq = prev;
    }
    prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!getVarint(p, end, v))
            return false;
        prev = std::uint64_t(std::int64_t(prev) + unzigzag(v));
        out[i].block = prev;
    }
    if (std::size_t(end - p) < 2 * n)
        return false;
    for (std::size_t i = 0; i < n; ++i)
        out[i].cpu = *p++;
    for (std::size_t i = 0; i < n; ++i)
        out[i].cls = *p++;
    for (std::size_t i = 0; i < n; ++i) {
        if (!getVarint(p, end, v) || v > 0xFFFF)
            return false;
        out[i].fn = static_cast<FnId>(v);
    }
    return p == end;
}

// ---- stdio helpers ----------------------------------------------------------

using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE *)>;

bool
writeAll(std::FILE *f, const unsigned char *p, std::size_t n)
{
    // An empty vector's data() may be null, which fwrite must not see.
    return n == 0 || std::fwrite(p, 1, n, f) == n;
}

bool
readAt(std::FILE *f, std::uint64_t off, unsigned char *p, std::size_t n)
{
    if (std::fseek(f, static_cast<long>(off), SEEK_SET) != 0)
        return false;
    return std::fread(p, 1, n, f) == n;
}

std::uint64_t
fileSize(std::FILE *f)
{
    std::fseek(f, 0, SEEK_END);
    const long s = std::ftell(f);
    return s < 0 ? 0 : static_cast<std::uint64_t>(s);
}

// ---- v2 writer --------------------------------------------------------------

std::vector<unsigned char>
buildV2Header(const MissTrace &trace, const TraceWriteOptions &opts,
              std::uint32_t chunkRecords, std::uint32_t chunkCount,
              std::uint64_t indexOffset)
{
    std::vector<unsigned char> h;
    h.reserve(kV2HeaderBytes);
    h.insert(h.end(), kMagic, kMagic + 4);
    putU32(h, 2);
    putU32(h, kV2HeaderBytes);
    putU32(h, trace.numCpus);
    putU32(h, static_cast<std::uint32_t>(opts.kind));
    putU32(h, static_cast<std::uint32_t>(opts.codec));
    putU32(h, chunkRecords);
    putU32(h, chunkCount);
    putU64(h, trace.instructions);
    putU64(h, trace.misses.size());
    putU64(h, opts.configHash);
    putU64(h, indexOffset);
    putU32(h, kV2FieldCount);
    putU32(h, 0); // flags, reserved
    return h;
}

bool
saveTraceV2(const MissTrace &trace, const std::string &path,
            const TraceWriteOptions &opts)
{
    const Codec *codec =
        codecById(static_cast<std::uint32_t>(opts.codec));
    if (!codec)
        return false;
    const std::uint32_t chunkRecords = std::min(
        kMaxChunkRecords, std::max<std::uint32_t>(1, opts.chunkRecords));

    // Field descriptor table + optional function table.
    std::vector<unsigned char> tables;
    for (const TraceField &fld : kV2Fields) {
        tables.push_back(fld.id);
        tables.push_back(fld.encoding);
        putU16(tables, fld.widthBits);
        putU32(tables, 0); // reserved
    }
    const std::size_t fnCount = opts.registry ? opts.registry->size() : 0;
    putU32(tables, static_cast<std::uint32_t>(fnCount));
    for (std::size_t id = 0; id < fnCount; ++id) {
        const std::string &name =
            opts.registry->name(static_cast<FnId>(id));
        const std::size_t len = std::min<std::size_t>(name.size(), 255);
        putU16(tables, static_cast<std::uint16_t>(id));
        tables.push_back(static_cast<unsigned char>(
            opts.registry->category(static_cast<FnId>(id))));
        tables.push_back(static_cast<unsigned char>(len));
        tables.insert(tables.end(), name.data(), name.data() + len);
    }

    FilePtr f(std::fopen(path.c_str(), "wb"), &std::fclose);
    if (!f)
        return false;

    // Placeholder header (chunk count / index offset patched at end).
    auto header = buildV2Header(trace, opts, chunkRecords, 0, 0);
    if (!writeAll(f.get(), header.data(), header.size()) ||
        !writeAll(f.get(), tables.data(), tables.size()))
        return false;

    std::uint64_t pos = kV2HeaderBytes + tables.size();
    std::vector<TraceChunk> index;
    for (std::size_t start = 0; start < trace.misses.size();
         start += chunkRecords) {
        const std::size_t n = std::min<std::size_t>(
            chunkRecords, trace.misses.size() - start);
        const auto raw = encodeChunk(trace.misses.data() + start, n);
        std::vector<unsigned char> packed;
        if (opts.codec != CodecId::None && !raw.empty())
            packed = codec->compress(raw.data(), raw.size());
        const bool usePacked =
            !packed.empty() && packed.size() < raw.size();
        const auto &payload = usePacked ? packed : raw;

        std::vector<unsigned char> chunkHeader;
        putU32(chunkHeader, static_cast<std::uint32_t>(raw.size()));
        putU32(chunkHeader, static_cast<std::uint32_t>(payload.size()));
        if (!writeAll(f.get(), chunkHeader.data(), chunkHeader.size()) ||
            !writeAll(f.get(), payload.data(), payload.size()))
            return false;

        TraceChunk c;
        c.offset = pos;
        c.firstSeq = trace.misses[start].seq;
        c.records = static_cast<std::uint32_t>(n);
        c.storedBytes = static_cast<std::uint32_t>(payload.size());
        index.push_back(c);
        pos += 8 + payload.size();
    }

    const std::uint64_t indexOffset = pos;
    std::vector<unsigned char> indexBytes;
    indexBytes.reserve(index.size() * kIndexEntryBytes);
    for (const TraceChunk &c : index) {
        putU64(indexBytes, c.offset);
        putU64(indexBytes, c.firstSeq);
        putU32(indexBytes, c.records);
        putU32(indexBytes, c.storedBytes);
    }
    if (!writeAll(f.get(), indexBytes.data(), indexBytes.size()))
        return false;

    header = buildV2Header(trace, opts, chunkRecords,
                           static_cast<std::uint32_t>(index.size()),
                           indexOffset);
    if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
        !writeAll(f.get(), header.data(), header.size()))
        return false;
    return std::fflush(f.get()) == 0;
}

} // namespace

std::string_view
traceContentKindName(TraceContentKind k)
{
    switch (k) {
      case TraceContentKind::Unknown: return "unknown";
      case TraceContentKind::OffChip: return "off-chip";
      case TraceContentKind::IntraChip: return "intra-chip";
      case TraceContentKind::IntraChipOnChip:
        return "intra-chip (on-chip-satisfied)";
    }
    return "?";
}

bool
saveTrace(const MissTrace &trace, const std::string &path,
          const TraceWriteOptions &opts)
{
    return saveTraceV2(trace, path, opts);
}

TraceResult<TraceReader>
TraceReader::open(const std::string &path, const TraceOpenOptions &opts)
{
    return openImpl(path, 0, std::nullopt, opts);
}

TraceResult<TraceReader>
TraceReader::openSlice(const std::string &path, std::uint64_t offset,
                       std::uint64_t bytes, const TraceOpenOptions &opts)
{
    return openImpl(path, offset, bytes, opts);
}

bool
TraceReader::readBytes(std::uint64_t off, unsigned char *p,
                       std::size_t n) const
{
    if (n == 0)
        return true;
    if (off > size_ || n > size_ - off)
        return false;
    if (map_ != nullptr) {
        std::memcpy(p, map_ + base_ + off, n);
        return true;
    }
    return readAt(file_.get(), base_ + off, p, n);
}

const unsigned char *
TraceReader::viewBytes(std::uint64_t off, std::size_t n) const
{
    if (map_ == nullptr || off > size_ || n > size_ - off)
        return nullptr;
    return map_ + base_ + off;
}

TraceResult<TraceReader>
TraceReader::openImpl(const std::string &path, std::uint64_t offset,
                      std::optional<std::uint64_t> bytes,
                      const TraceOpenOptions &opts)
{
    using Result = TraceResult<TraceReader>;

    TraceReader r;
    r.file_.reset(std::fopen(path.c_str(), "rb"));
    if (!r.file_)
        return Result::failure("cannot open " + path);
    std::FILE *f = r.file_.get();
    const std::uint64_t fileBytes = fileSize(f);
    if (offset > fileBytes || (bytes && *bytes > fileBytes - offset))
        return Result::failure(path + ": slice extends past end of file");
    r.base_ = offset;
    r.size_ = bytes ? *bytes : fileBytes - offset;
    const std::uint64_t size = r.size_;

#ifdef TSTREAM_HAVE_MMAP
    // Map the whole file (the slice is a view into it); a failed mmap
    // silently selects the stdio path, which returns identical bytes.
    if (opts.allowMmap && fileBytes > 0) {
        void *m = ::mmap(nullptr, static_cast<std::size_t>(fileBytes),
                         PROT_READ, MAP_PRIVATE, ::fileno(f), 0);
        if (m != MAP_FAILED) {
            const std::size_t len = static_cast<std::size_t>(fileBytes);
            r.mapping_ = std::shared_ptr<const void>(
                m, [len](const void *p) {
                    ::munmap(const_cast<void *>(p), len);
                });
            r.map_ = static_cast<const unsigned char *>(m);
        }
    }
#else
    (void)opts;
#endif

    unsigned char head[kV2HeaderBytes];
    if (size < 8 || !r.readBytes(0, head, 8))
        return Result::failure(path + ": truncated header");
    if (std::memcmp(head, kMagic, 4) != 0)
        return Result::failure(path + ": bad magic (not a tstream trace)");
    const std::uint32_t version = getU32(head + 4);
    TraceMeta &m = r.meta_;
    m.version = version;

    if (version == 1) {
        if (size < kV1HeaderBytes ||
            !r.readBytes(0, head, kV1HeaderBytes))
            return Result::failure(path + ": truncated v1 header");
        m.numCpus = getU32(head + 8);
        m.instructions = getU64(head + 12);
        m.recordCount = getU64(head + 20);
        m.codec = static_cast<std::uint32_t>(CodecId::None);
        m.chunkRecords = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            m.recordCount, 0xFFFFFFFFu));
        for (const TraceField &fld : kV2Fields)
            m.fields.push_back({fld.id, kEncFixed, fld.widthBits});
        if (size != kV1HeaderBytes + m.recordCount * kV1RecordBytes)
            return Result::failure(path + ": v1 size mismatch");
        // Present the flat v1 payload as bounded synthetic chunks so
        // the chunk fields never overflow u32 and readers stream v1
        // files too.
        for (std::uint64_t start = 0; start < m.recordCount;
             start += kV1ChunkRecords) {
            const std::uint64_t n =
                std::min(kV1ChunkRecords, m.recordCount - start);
            TraceChunk c;
            c.offset = kV1HeaderBytes + start * kV1RecordBytes;
            c.records = static_cast<std::uint32_t>(n);
            c.storedBytes =
                static_cast<std::uint32_t>(n * kV1RecordBytes);
            unsigned char first[8];
            if (!r.readBytes(c.offset, first, 8))
                return Result::failure(path + ": unreadable v1 payload");
            c.firstSeq = getU64(first);
            if (!m.chunks.empty() && c.firstSeq < m.chunks.back().firstSeq)
                return Result::failure(
                    path + ": chunk index firstSeq not non-decreasing");
            m.chunks.push_back(c);
        }
        return Result(std::move(r));
    }

    if (version != 2)
        return Result::failure(path + ": unsupported version " +
                               std::to_string(version));

    if (size < kV2HeaderBytes || !r.readBytes(0, head, kV2HeaderBytes))
        return Result::failure(path + ": truncated v2 header");
    const std::uint32_t headerBytes = getU32(head + 8);
    if (headerBytes < kV2HeaderBytes || headerBytes > 4096 ||
        headerBytes > size)
        return Result::failure(path + ": implausible header size");
    m.numCpus = getU32(head + 12);
    m.kind = static_cast<TraceContentKind>(getU32(head + 16));
    m.codec = getU32(head + 20);
    m.chunkRecords = getU32(head + 24);
    const std::uint32_t chunkCount = getU32(head + 28);
    m.instructions = getU64(head + 32);
    m.recordCount = getU64(head + 40);
    m.configHash = getU64(head + 48);
    const std::uint64_t indexOffset = getU64(head + 56);
    const std::uint32_t fieldCount = getU32(head + 64);

    if (!codecById(m.codec))
        return Result::failure(path + ": unknown codec id " +
                               std::to_string(m.codec));
    if (fieldCount > 64)
        return Result::failure(path + ": implausible field count");

    // Field descriptor table: this reader requires the exact layout
    // it knows how to decode; the descriptors exist so that mismatch
    // is a diagnosable error, not a misparse.
    std::vector<unsigned char> fields(fieldCount * kFieldEntryBytes);
    if (!fields.empty() &&
        !r.readBytes(headerBytes, fields.data(), fields.size()))
        return Result::failure(path + ": truncated field table");
    for (std::uint32_t i = 0; i < fieldCount; ++i) {
        const unsigned char *p = fields.data() + i * kFieldEntryBytes;
        m.fields.push_back({p[0], p[1], getU16(p + 2)});
    }
    if (fieldCount != kV2FieldCount)
        return Result::failure(path + ": unsupported field layout");
    for (std::uint32_t i = 0; i < kV2FieldCount; ++i)
        if (m.fields[i].id != kV2Fields[i].id ||
            m.fields[i].encoding != kV2Fields[i].encoding)
            return Result::failure(path + ": unsupported field layout");

    // Function table.
    std::uint64_t cursor =
        headerBytes + std::uint64_t(fieldCount) * kFieldEntryBytes;
    unsigned char cnt[4];
    if (!r.readBytes(cursor, cnt, 4))
        return Result::failure(path + ": truncated function table");
    cursor += 4;
    const std::uint32_t fnCount = getU32(cnt);
    if (fnCount > 0xFFFF)
        return Result::failure(path + ": implausible function count");
    m.functions.reserve(fnCount);
    for (std::uint32_t i = 0; i < fnCount; ++i) {
        unsigned char entry[4];
        if (!r.readBytes(cursor, entry, 4))
            return Result::failure(path + ": truncated function table");
        cursor += 4;
        const std::uint16_t id = getU16(entry);
        const std::uint8_t cat = entry[2];
        const std::uint8_t len = entry[3];
        if (id != i)
            return Result::failure(path +
                                   ": non-sequential function table");
        if (cat >= kNumCategories)
            return Result::failure(path +
                                   ": bad category in function table");
        std::string name(len, '\0');
        if (len > 0 &&
            !r.readBytes(cursor,
                         reinterpret_cast<unsigned char *>(&name[0]),
                         len))
            return Result::failure(path + ": truncated function table");
        cursor += len;
        m.functions.push_back(
            {std::move(name), static_cast<Category>(cat)});
    }

    // Chunk index.
    if (indexOffset > size ||
        size - indexOffset < std::uint64_t(chunkCount) * kIndexEntryBytes)
        return Result::failure(path + ": truncated chunk index");
    std::vector<unsigned char> idx(std::size_t(chunkCount) *
                                   kIndexEntryBytes);
    if (!idx.empty() &&
        !r.readBytes(indexOffset, idx.data(), idx.size()))
        return Result::failure(path + ": unreadable chunk index");
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < chunkCount; ++i) {
        const unsigned char *p = idx.data() + i * kIndexEntryBytes;
        TraceChunk c;
        c.offset = getU64(p);
        c.firstSeq = getU64(p + 8);
        c.records = getU32(p + 16);
        c.storedBytes = getU32(p + 20);
        if (c.offset + 8 + c.storedBytes > size)
            return Result::failure(path + ": chunk " +
                                   std::to_string(i) +
                                   " extends past end of file");
        if (std::uint64_t(c.records) * kMinEncodedRecordBytes >
            maxRawBytes(c.storedBytes))
            return Result::failure(path + ": chunk " +
                                   std::to_string(i) +
                                   " claims an implausible record "
                                   "count");
        // chunkRangeForSeq() binary-searches this column; a
        // non-monotone index would make it disagree with a full scan,
        // so it is rejected here rather than trusted.
        if (!m.chunks.empty() && c.firstSeq < m.chunks.back().firstSeq)
            return Result::failure(path + ": chunk index firstSeq not "
                                          "non-decreasing at chunk " +
                                   std::to_string(i));
        total += c.records;
        m.chunks.push_back(c);
    }
    if (total != m.recordCount)
        return Result::failure(path + ": record count mismatch (index " +
                               std::to_string(total) + ", header " +
                               std::to_string(m.recordCount) + ")");
    return Result(std::move(r));
}

TraceResult<std::vector<MissRecord>>
TraceReader::readChunk(std::size_t index)
try {
    using Result = TraceResult<std::vector<MissRecord>>;

    if (index >= meta_.chunks.size())
        return Result::failure("chunk index out of range");
    const TraceChunk &c = meta_.chunks[index];

    std::vector<MissRecord> out;
    if (meta_.version == 1) {
        std::vector<unsigned char> buf;
        const unsigned char *p = viewBytes(c.offset, c.storedBytes);
        if (p == nullptr) {
            buf.resize(c.storedBytes);
            if (!readBytes(c.offset, buf.data(), buf.size()))
                return Result::failure("short read on v1 records");
            p = buf.data();
        }
        out.resize(c.records);
        for (std::uint32_t i = 0; i < c.records;
             ++i, p += kV1RecordBytes) {
            out[i].seq = getU64(p);
            out[i].block = getU64(p + 8);
            out[i].cpu = p[16];
            out[i].cls = p[17];
            out[i].fn = static_cast<FnId>(getU16(p + 18));
        }
    } else {
        unsigned char chunkHeader[8];
        if (!readBytes(c.offset, chunkHeader, 8))
            return Result::failure("short read on chunk header");
        const std::uint32_t rawBytes = getU32(chunkHeader);
        const std::uint32_t storedBytes = getU32(chunkHeader + 4);
        if (storedBytes != c.storedBytes)
            return Result::failure("chunk/index size disagreement");
        if (rawBytes < storedBytes ||
            rawBytes < c.records * kMinEncodedRecordBytes ||
            rawBytes > c.records * kMaxEncodedRecordBytes + 16 ||
            rawBytes > maxRawBytes(storedBytes))
            return Result::failure("implausible chunk payload size");

        // Zero-copy when mapped: the stored payload is used in place;
        // a raw-stored (incompressible) chunk decodes straight out of
        // the page cache with no intermediate buffer at all.
        std::vector<unsigned char> stored;
        const unsigned char *storedPtr =
            viewBytes(c.offset + 8, storedBytes);
        if (storedPtr == nullptr) {
            stored.resize(storedBytes);
            if (storedBytes > 0 &&
                !readBytes(c.offset + 8, stored.data(), storedBytes))
                return Result::failure("short read on chunk payload");
            storedPtr = stored.data();
        }

        std::vector<unsigned char> raw;
        const unsigned char *payload = storedPtr;
        if (storedBytes != rawBytes) {
            const Codec *codec = codecById(meta_.codec);
            raw.resize(rawBytes);
            if (!codec->decompress(storedPtr, storedBytes, raw.data(),
                                   rawBytes))
                return Result::failure("corrupt compressed chunk");
            payload = raw.data();
        }

        if (!decodeChunk(payload, rawBytes, c.records, out))
            return Result::failure("corrupt chunk encoding");
    }

    // Index trustworthiness: the decoded records must corroborate the
    // index entry that located them, so that whenever reads succeed,
    // binary-search selection over firstSeq (chunkRangeForSeq) agrees
    // with a full scan (the differential tests rely on this: either a
    // corrupt file fails loudly somewhere, or indexed == reference).
    if (!out.empty()) {
        if (out.front().seq != c.firstSeq)
            return Result::failure(
                "chunk records disagree with index firstSeq");
        for (std::size_t i = 1; i < out.size(); ++i)
            if (out[i].seq < out[i - 1].seq)
                return Result::failure(
                    "seq not non-decreasing within chunk");
        if (index + 1 < meta_.chunks.size() &&
            out.back().seq > meta_.chunks[index + 1].firstSeq)
            return Result::failure(
                "chunk seqs overlap the next chunk's firstSeq");
    }
    ++chunksDecoded_;
    return Result(std::move(out));
} catch (const std::bad_alloc &) {
    // A corrupt index can claim sizes up to ~1000x the file size; an
    // allocation failure is a malformed-input diagnostic, not an
    // abort (see the error contract in trace_io.hh).
    return TraceResult<std::vector<MissRecord>>::failure(
        "chunk too large to allocate");
}

TraceResult<MissTrace>
TraceReader::readAll()
try {
    using Result = TraceResult<MissTrace>;

    MissTrace trace;
    trace.numCpus = meta_.numCpus;
    trace.instructions = meta_.instructions;
    trace.misses.reserve(static_cast<std::size_t>(meta_.recordCount));
    for (std::size_t i = 0; i < meta_.chunks.size(); ++i) {
        auto chunk = readChunk(i);
        if (!chunk)
            return Result::failure("chunk " + std::to_string(i) + ": " +
                                   chunk.error());
        trace.misses.insert(trace.misses.end(), chunk->begin(),
                            chunk->end());
    }
    if (trace.misses.size() != meta_.recordCount)
        return Result::failure("decoded record count mismatch");
    return Result(std::move(trace));
} catch (const std::bad_alloc &) {
    return TraceResult<MissTrace>::failure(
        "trace too large to allocate");
}

std::pair<std::size_t, std::size_t>
TraceReader::chunkRangeForSeq(std::uint64_t t0, std::uint64_t t1) const
{
    const std::vector<TraceChunk> &chunks = meta_.chunks;
    if (t1 <= t0 || chunks.empty())
        return {0, 0};
    const auto less = [](const TraceChunk &c, std::uint64_t v) {
        return c.firstSeq < v;
    };
    // First chunk whose records are entirely >= t1: everything from
    // it on is outside the window.
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(chunks.begin(), chunks.end(), t1, less) -
        chunks.begin());
    // First chunk with firstSeq >= t0 — minus one, because the
    // preceding chunk's extent is unknown from the index alone and
    // may reach into [t0, t1).
    std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(chunks.begin(), chunks.end(), t0, less) -
        chunks.begin());
    if (lo > 0)
        --lo;
    return {std::min(lo, hi), hi};
}

TraceResult<FunctionRegistry>
TraceReader::functions() const
{
    using Result = TraceResult<FunctionRegistry>;

    if (meta_.functions.empty())
        return Result::failure("trace has no function table");
    std::set<std::string> seen;
    for (const TraceFunction &fn : meta_.functions)
        if (!seen.insert(fn.name).second)
            return Result::failure("duplicate name in function table: " +
                                   fn.name);

    FunctionRegistry reg;
    if (meta_.functions[0].name != "<unknown>" ||
        meta_.functions[0].category != Category::Uncategorized)
        return Result::failure("function table does not reserve id 0");
    for (std::size_t id = 1; id < meta_.functions.size(); ++id) {
        const TraceFunction &fn = meta_.functions[id];
        if (reg.intern(fn.name, fn.category) != id)
            return Result::failure("function table does not re-intern "
                                   "to sequential ids");
    }
    return Result(std::move(reg));
}

TraceResult<MissTrace>
loadTrace(const std::string &path)
{
    auto reader = TraceReader::open(path);
    if (!reader)
        return TraceResult<MissTrace>::failure(reader.error());
    return reader->readAll();
}

} // namespace tstream
