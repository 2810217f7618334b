#include "trace/query.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "core/figures.hh"
#include "core/stream_analysis.hh"

namespace tstream
{

namespace
{

constexpr char kArchiveMagic[4] = {'T', 'S', 'A', 'R'};
constexpr std::uint32_t kArchiveVersion = 1;
constexpr std::size_t kArchiveHeaderBytes = 24;
/** Fixed part of a catalog entry (before the name bytes). */
constexpr std::size_t kCatalogEntryFixedBytes = 7 * 8 + 2 * 4 + 2;
constexpr std::uint32_t kMaxArchiveMembers = 65535;

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

/** True for the content kinds whose cls column is an IntraClass. */
bool
kindIsIntra(TraceContentKind kind)
{
    return kind == TraceContentKind::IntraChip ||
           kind == TraceContentKind::IntraChipOnChip;
}

std::string_view
clsDisplayName(TraceContentKind kind, std::uint8_t cls)
{
    if (kindIsIntra(kind))
        return cls < kNumIntraClasses
                   ? intraClassName(static_cast<IntraClass>(cls))
                   : "<invalid>";
    return cls < kNumMissClasses
               ? missClassName(static_cast<MissClass>(cls))
               : "<invalid>";
}

std::size_t
numClassesFor(TraceContentKind kind)
{
    return kindIsIntra(kind) ? kNumIntraClasses : kNumMissClasses;
}

/** The spec's filters resolved against one trace's metadata. */
struct ResolvedFilters
{
    std::optional<std::uint8_t> cls;
    std::optional<FnId> fn;
    std::optional<Category> category;
    std::uint64_t seqLo = 0;
    std::uint64_t seqHi = ~std::uint64_t(0);
};

bool
resolveFilters(const TraceMeta &meta, const QuerySpec &spec,
               ResolvedFilters &out, std::string &err)
{
    if (!spec.cls.empty()) {
        const std::size_t n = numClassesFor(meta.kind);
        bool found = false;
        for (std::size_t c = 0; c < n; ++c)
            if (spec.cls == clsDisplayName(
                                meta.kind,
                                static_cast<std::uint8_t>(c))) {
                out.cls = static_cast<std::uint8_t>(c);
                found = true;
                break;
            }
        if (!found) {
            err = "unknown miss class '" + spec.cls + "' for a " +
                  std::string(traceContentKindName(meta.kind)) +
                  " trace";
            return false;
        }
    }
    if (!spec.module.empty() || !spec.category.empty()) {
        if (meta.functions.empty()) {
            err = "trace has no function table (module/category "
                  "filters need one; record with the v2 writer)";
            return false;
        }
    }
    if (!spec.module.empty()) {
        bool found = false;
        for (std::size_t id = 0; id < meta.functions.size(); ++id)
            if (meta.functions[id].name == spec.module) {
                out.fn = static_cast<FnId>(id);
                found = true;
                break;
            }
        if (!found) {
            err = "unknown module '" + spec.module +
                  "' (not in the trace's function table)";
            return false;
        }
    }
    if (!spec.category.empty()) {
        bool found = false;
        for (std::size_t c = 0; c < kNumCategories; ++c)
            if (spec.category ==
                categoryName(static_cast<Category>(c))) {
                out.category = static_cast<Category>(c);
                found = true;
                break;
            }
        if (!found) {
            err = "unknown category '" + spec.category + "'";
            return false;
        }
    }
    if (spec.seqLo)
        out.seqLo = *spec.seqLo;
    if (spec.seqHi)
        out.seqHi = *spec.seqHi;
    return true;
}

bool
matches(const MissRecord &m, const TraceMeta &meta,
        const QuerySpec &spec, const ResolvedFilters &f)
{
    if (m.seq < f.seqLo || m.seq >= f.seqHi)
        return false;
    if (spec.cpu && m.cpu != *spec.cpu)
        return false;
    if (f.cls && m.cls != *f.cls)
        return false;
    if (spec.blockLo && m.block < *spec.blockLo)
        return false;
    if (spec.blockHi && m.block >= *spec.blockHi)
        return false;
    if (f.fn && m.fn != *f.fn)
        return false;
    if (f.category) {
        const Category c =
            m.fn < meta.functions.size()
                ? meta.functions[m.fn].category
                : Category::Uncategorized;
        if (c != *f.category)
            return false;
    }
    return true;
}

/**
 * The effective aggregation window: the spec's bounds where given,
 * else the matched records' extent. Empty (lo >= hi) when nothing
 * pins it down.
 */
std::pair<std::uint64_t, std::uint64_t>
effectiveWindow(const QuerySpec &spec,
                const std::vector<MissRecord> &matched)
{
    std::uint64_t lo = 0, hi = 0;
    if (spec.seqLo)
        lo = *spec.seqLo;
    else if (!matched.empty())
        lo = matched.front().seq;
    if (spec.seqHi)
        hi = *spec.seqHi;
    else if (!matched.empty())
        hi = matched.back().seq + 1;
    return {lo, hi};
}

/** Split [lo, hi) into <= n equal-width intervals (last may be short). */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
splitIntervals(std::uint64_t lo, std::uint64_t hi, std::uint32_t n)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    if (hi <= lo)
        return out;
    const std::uint64_t span = hi - lo;
    const std::uint64_t width = (span + n - 1) / n;
    for (std::uint64_t start = lo; start < hi; start += width)
        out.emplace_back(start, std::min(hi, start + width));
    return out;
}

/**
 * analyzeStreams() panics on cpu >= numCpus; a trace that decodes
 * cleanly can still carry such records (the cpu column is raw bytes),
 * so the stream aggregates check first and fail with a diagnostic.
 */
bool
cpusInRange(const std::vector<MissRecord> &recs, std::uint32_t numCpus)
{
    const std::uint32_t ncpu = std::max(1u, numCpus);
    for (const MissRecord &m : recs)
        if (m.cpu >= ncpu)
            return false;
    return true;
}

void
buildSummaryRows(const QueryOutput &out, std::vector<QueryRow> &rows)
{
    QueryRow row;
    row.table = "summary";
    row.text = fmt("matched %" PRIu64 " of %" PRIu64
                   " records (decoded %" PRIu64 " of %" PRIu64
                   " chunks)",
                   out.matched, out.scanned, out.chunksDecoded,
                   out.chunksTotal);
    row.metrics = {
        {"matched", static_cast<double>(out.matched)},
        {"scanned", static_cast<double>(out.scanned)},
        {"chunks_decoded", static_cast<double>(out.chunksDecoded)},
        {"chunks_total", static_cast<double>(out.chunksTotal)},
    };
    rows.push_back(std::move(row));
}

void
buildSelectRows(const TraceMeta &meta,
                const std::vector<MissRecord> &matched,
                std::uint64_t limit, std::vector<QueryRow> &rows)
{
    std::uint64_t n = 0;
    for (const MissRecord &m : matched) {
        if (limit > 0 && n >= limit)
            break;
        QueryRow row;
        row.table = "select";
        row.trace = std::to_string(m.seq);
        const std::string fn =
            m.fn < meta.functions.size() && !meta.functions.empty()
                ? meta.functions[m.fn].name
                : std::to_string(m.fn);
        row.label = fn;
        row.text = fmt("%-12" PRIu64 " %016" PRIx64 " %4u %-28s %s",
                       m.seq, static_cast<std::uint64_t>(m.block),
                       m.cpu,
                       std::string(clsDisplayName(meta.kind, m.cls))
                           .c_str(),
                       fn.c_str());
        row.metrics = {
            {"seq", static_cast<double>(m.seq)},
            {"block", static_cast<double>(m.block)},
            {"cpu", static_cast<double>(m.cpu)},
            {"cls", static_cast<double>(m.cls)},
            {"fn", static_cast<double>(m.fn)},
        };
        rows.push_back(std::move(row));
        ++n;
    }
}

void
buildCountRows(const TraceMeta &meta, const QuerySpec &spec,
               const std::vector<MissRecord> &matched,
               std::uint32_t intervals, std::vector<QueryRow> &rows)
{
    const auto [lo, hi] = effectiveWindow(spec, matched);
    const auto ivs = splitIntervals(lo, hi, intervals);
    const std::size_t nCls = numClassesFor(meta.kind);
    std::size_t next = 0; // matched is sorted by seq
    for (const auto &[a, b] : ivs) {
        std::uint64_t total = 0;
        std::vector<std::uint64_t> byCls(nCls, 0);
        while (next < matched.size() && matched[next].seq < b) {
            const MissRecord &m = matched[next++];
            if (m.seq < a)
                continue; // before the first interval
            ++total;
            if (m.cls < nCls)
                ++byCls[m.cls];
        }
        QueryRow row;
        row.table = "counts";
        row.trace = fmt("[%" PRIu64 ",%" PRIu64 ")", a, b);
        std::string text =
            fmt("%-28s %10" PRIu64, row.trace.c_str(), total);
        row.metrics = {
            {"seq_lo", static_cast<double>(a)},
            {"seq_hi", static_cast<double>(b)},
            {"misses", static_cast<double>(total)},
        };
        for (std::size_t c = 0; c < nCls; ++c) {
            const std::string name(clsDisplayName(
                meta.kind, static_cast<std::uint8_t>(c)));
            row.metrics.emplace_back(
                name, static_cast<double>(byCls[c]));
            text += fmt("  %s %" PRIu64, name.c_str(), byCls[c]);
        }
        row.text = std::move(text);
        rows.push_back(std::move(row));
    }
}

bool
buildStreamRows(const TraceMeta &meta,
                const std::vector<MissRecord> &matched,
                std::vector<QueryRow> &rows, std::string &err)
{
    if (!cpusInRange(matched, meta.numCpus)) {
        err = "stream aggregate: record cpu out of range for a " +
              std::to_string(meta.numCpus) + "-cpu trace";
        return false;
    }
    MissTrace t;
    t.misses = matched;
    t.instructions = meta.instructions;
    t.numCpus = meta.numCpus;
    QueryRow row;
    row.table = "streams";
    // The same fig2Metrics() the fig2 bench uses, so an offline query
    // row over the same records is bit-identical to the live bench row
    // (the tools e2e chain asserts it through the JSON layer).
    row.metrics = fig2Metrics(analyzeStreams(t));
    const auto &m = row.metrics;
    row.text = fmt("%9.1f%% %9.1f%% %11.1f%% %9.1f%%", m[0].second,
                   m[1].second, m[2].second, m[3].second);
    rows.push_back(std::move(row));
    return true;
}

bool
buildLengthRows(const TraceMeta &meta, const QuerySpec &spec,
                const std::vector<MissRecord> &matched,
                std::uint32_t intervals, std::vector<QueryRow> &rows,
                std::string &err)
{
    if (!cpusInRange(matched, meta.numCpus)) {
        err = "lengths aggregate: record cpu out of range for a " +
              std::to_string(meta.numCpus) + "-cpu trace";
        return false;
    }
    const auto [lo, hi] = effectiveWindow(spec, matched);
    const auto ivs = splitIntervals(lo, hi, intervals);
    static constexpr std::uint64_t kLenPoints[] = {
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};

    std::size_t next = 0;
    for (const auto &[a, b] : ivs) {
        MissTrace t;
        t.instructions = meta.instructions;
        t.numCpus = meta.numCpus;
        while (next < matched.size() && matched[next].seq < b) {
            if (matched[next].seq >= a)
                t.misses.push_back(matched[next]);
            ++next;
        }
        const StreamStats s = analyzeStreams(t);

        // Weighted stream-length histogram: misses contributed by
        // streams of length in (point/2, point], plus an overflow
        // bucket — the per-interval view of Figure 4 (left).
        std::vector<std::uint64_t> buckets(
            std::size(kLenPoints) + 1, 0);
        for (const auto &[len, w] : s.lengthWeighted) {
            std::size_t slot = std::size(kLenPoints);
            for (std::size_t i = 0; i < std::size(kLenPoints); ++i)
                if (len <= kLenPoints[i]) {
                    slot = i;
                    break;
                }
            buckets[slot] += w;
        }

        QueryRow row;
        row.table = "lengths";
        row.trace = fmt("[%" PRIu64 ",%" PRIu64 ")", a, b);
        row.metrics = {
            {"seq_lo", static_cast<double>(a)},
            {"seq_hi", static_cast<double>(b)},
            {"misses", static_cast<double>(t.misses.size())},
            {"median_len", s.medianStreamLength()},
        };
        std::string text = fmt("%-28s median %6.0f |",
                               row.trace.c_str(),
                               s.medianStreamLength());
        for (std::size_t i = 0; i < std::size(kLenPoints); ++i) {
            row.metrics.emplace_back(
                fmt("len_le_%" PRIu64, kLenPoints[i]),
                static_cast<double>(buckets[i]));
            if (buckets[i] > 0)
                text += fmt(" <=%" PRIu64 ":%" PRIu64, kLenPoints[i],
                            buckets[i]);
        }
        row.metrics.emplace_back(
            "len_gt_4096",
            static_cast<double>(buckets[std::size(kLenPoints)]));
        if (buckets[std::size(kLenPoints)] > 0)
            text += fmt(" >4096:%" PRIu64,
                        buckets[std::size(kLenPoints)]);
        row.text = std::move(text);
        rows.push_back(std::move(row));
    }
    return true;
}

} // namespace

TraceResult<std::vector<MissRecord>>
queryRecords(TraceReader &reader, const QuerySpec &spec)
{
    using Result = TraceResult<std::vector<MissRecord>>;

    const TraceMeta &meta = reader.meta();
    ResolvedFilters f;
    std::string err;
    if (!resolveFilters(meta, spec, f, err))
        return Result::failure(err);

    // Index-driven chunk selection: only chunks that can overlap the
    // seq window are decoded (all of them when no window is set).
    const auto [lo, hi] = reader.chunkRangeForSeq(f.seqLo, f.seqHi);
    std::vector<MissRecord> out;
    for (std::size_t i = lo; i < hi; ++i) {
        auto chunk = reader.readChunk(i);
        if (!chunk)
            return Result::failure("chunk " + std::to_string(i) +
                                   ": " + chunk.error());
        for (const MissRecord &m : *chunk)
            if (matches(m, meta, spec, f))
                out.push_back(m);
    }
    return Result(std::move(out));
}

TraceResult<QueryOutput>
runQuery(TraceReader &reader, const QuerySpec &spec)
{
    using Result = TraceResult<QueryOutput>;

    std::vector<std::string> aggs = spec.aggregates;
    if (aggs.empty())
        aggs = {"summary", "select"};
    for (const std::string &a : aggs)
        if (a != "summary" && a != "select" && a != "counts" &&
            a != "streams" && a != "lengths")
            return Result::failure("unknown aggregate '" + a +
                                   "' (summary, select, counts, "
                                   "streams, lengths)");
    const std::uint32_t intervals =
        std::min<std::uint32_t>(4096,
                                std::max<std::uint32_t>(
                                    1, spec.intervals));

    auto matched = queryRecords(reader, spec);
    if (!matched)
        return Result::failure(matched.error());

    const TraceMeta &meta = reader.meta();
    QueryOutput out;
    out.matched = matched->size();
    out.chunksDecoded = reader.chunksDecoded();
    out.chunksTotal = meta.chunks.size();
    {
        ResolvedFilters f;
        std::string err;
        resolveFilters(meta, spec, f, err); // validated above
        const auto [lo, hi] =
            reader.chunkRangeForSeq(f.seqLo, f.seqHi);
        for (std::size_t i = lo; i < hi; ++i)
            out.scanned += meta.chunks[i].records;
    }

    std::string err;
    for (const std::string &a : aggs) {
        if (a == "summary") {
            buildSummaryRows(out, out.rows);
        } else if (a == "select") {
            buildSelectRows(meta, *matched, spec.limit, out.rows);
        } else if (a == "counts") {
            buildCountRows(meta, spec, *matched, intervals, out.rows);
        } else if (a == "streams") {
            if (!buildStreamRows(meta, *matched, out.rows, err))
                return Result::failure(err);
        } else if (a == "lengths") {
            if (!buildLengthRows(meta, spec, *matched, intervals,
                                 out.rows, err))
                return Result::failure(err);
        }
    }
    return Result(std::move(out));
}

// ---------------------------------------------------------------------------
// Merged archives
// ---------------------------------------------------------------------------

namespace
{

using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE *)>;

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

std::vector<unsigned char>
buildArchiveHeader(std::uint32_t memberCount,
                   std::uint64_t catalogOffset)
{
    std::vector<unsigned char> h;
    h.insert(h.end(), kArchiveMagic, kArchiveMagic + 4);
    putU32(h, kArchiveVersion);
    putU32(h, memberCount);
    putU32(h, 0); // flags, reserved
    putU64(h, catalogOffset);
    return h;
}

} // namespace

bool
TraceArchive::isArchive(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!f)
        return false;
    unsigned char magic[4];
    return std::fread(magic, 1, 4, f.get()) == 4 &&
           std::memcmp(magic, kArchiveMagic, 4) == 0;
}

TraceResult<TraceArchive>
TraceArchive::open(const std::string &path)
{
    using Result = TraceResult<TraceArchive>;

    FilePtr f(std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!f)
        return Result::failure("cannot open " + path);
    std::fseek(f.get(), 0, SEEK_END);
    const long end = std::ftell(f.get());
    const std::uint64_t size =
        end < 0 ? 0 : static_cast<std::uint64_t>(end);

    unsigned char head[kArchiveHeaderBytes];
    if (size < kArchiveHeaderBytes ||
        std::fseek(f.get(), 0, SEEK_SET) != 0 ||
        std::fread(head, 1, sizeof(head), f.get()) != sizeof(head))
        return Result::failure(path + ": truncated archive header");
    if (std::memcmp(head, kArchiveMagic, 4) != 0)
        return Result::failure(path +
                               ": bad magic (not a tstream archive)");
    const std::uint32_t version = getU32(head + 4);
    if (version != kArchiveVersion)
        return Result::failure(path + ": unsupported archive version " +
                               std::to_string(version));
    const std::uint32_t memberCount = getU32(head + 8);
    const std::uint64_t catalogOffset = getU64(head + 16);
    if (memberCount > kMaxArchiveMembers)
        return Result::failure(path + ": implausible member count");
    if (catalogOffset < kArchiveHeaderBytes || catalogOffset > size)
        return Result::failure(path + ": catalog offset out of range");

    TraceArchive ar;
    ar.path_ = path;
    if (std::fseek(f.get(),
                   static_cast<long>(catalogOffset), SEEK_SET) != 0)
        return Result::failure(path + ": unreadable catalog");
    std::uint64_t remaining = size - catalogOffset;
    for (std::uint32_t i = 0; i < memberCount; ++i) {
        unsigned char fixed[kCatalogEntryFixedBytes];
        if (remaining < sizeof(fixed) ||
            std::fread(fixed, 1, sizeof(fixed), f.get()) !=
                sizeof(fixed))
            return Result::failure(path + ": truncated catalog");
        remaining -= sizeof(fixed);

        ArchiveMember m;
        m.offset = getU64(fixed);
        m.bytes = getU64(fixed + 8);
        m.configHash = getU64(fixed + 16);
        m.records = getU64(fixed + 24);
        m.instructions = getU64(fixed + 32);
        m.seqFirst = getU64(fixed + 40);
        m.seqLast = getU64(fixed + 48);
        m.kind = static_cast<TraceContentKind>(getU32(fixed + 56));
        m.numCpus = getU32(fixed + 60);
        const std::uint16_t nameLen = getU16(fixed + 64);
        if (nameLen == 0 || nameLen > 255)
            return Result::failure(path +
                                   ": bad member name length");
        if (remaining < nameLen)
            return Result::failure(path + ": truncated catalog");
        m.name.resize(nameLen);
        if (std::fread(&m.name[0], 1, nameLen, f.get()) != nameLen)
            return Result::failure(path + ": truncated catalog");
        remaining -= nameLen;

        if (m.offset < kArchiveHeaderBytes ||
            m.offset > catalogOffset ||
            m.bytes > catalogOffset - m.offset)
            return Result::failure(path + ": member '" + m.name +
                                   "' extends outside the member "
                                   "region");
        if (ar.find(m.name) != nullptr)
            return Result::failure(path + ": duplicate member '" +
                                   m.name + "'");
        ar.members_.push_back(std::move(m));
    }
    if (remaining != 0)
        return Result::failure(path +
                               ": trailing bytes after catalog");
    return Result(std::move(ar));
}

const ArchiveMember *
TraceArchive::find(std::string_view name) const
{
    for (const ArchiveMember &m : members_)
        if (m.name == name)
            return &m;
    return nullptr;
}

TraceResult<TraceReader>
TraceArchive::openMember(const ArchiveMember &m,
                         const TraceOpenOptions &opts) const
{
    return TraceReader::openSlice(path_, m.offset, m.bytes, opts);
}

TraceResult<std::uint64_t>
mergeArchive(const std::vector<ArchiveInput> &inputs,
             const std::string &outPath)
{
    using Result = TraceResult<std::uint64_t>;

    if (inputs.empty())
        return Result::failure("merge-archive needs at least one "
                               "member");
    if (inputs.size() > kMaxArchiveMembers)
        return Result::failure("too many members");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i].name.empty() || inputs[i].name.size() > 255)
            return Result::failure("member name must be 1..255 bytes");
        for (std::size_t j = 0; j < i; ++j)
            if (inputs[j].name == inputs[i].name)
                return Result::failure("duplicate member name '" +
                                       inputs[i].name + "'");
    }

    FilePtr out(std::fopen(outPath.c_str(), "wb"), &std::fclose);
    if (!out)
        return Result::failure("cannot write " + outPath);

    // Placeholder header; catalog offset patched once it is known
    // (same crash-consistency pattern as the v2 trace writer).
    auto header = buildArchiveHeader(
        static_cast<std::uint32_t>(inputs.size()), 0);
    if (std::fwrite(header.data(), 1, header.size(), out.get()) !=
        header.size())
        return Result::failure("cannot write " + outPath);

    std::uint64_t pos = kArchiveHeaderBytes;
    std::vector<ArchiveMember> members;
    for (const ArchiveInput &in : inputs) {
        // Validate the member and lift its header + seq extents into
        // the catalog entry.
        auto reader = TraceReader::open(in.path);
        if (!reader)
            return Result::failure(in.name + ": " + reader.error());
        const TraceMeta &meta = reader->meta();

        ArchiveMember m;
        m.name = in.name;
        m.offset = pos;
        m.configHash = meta.configHash;
        m.records = meta.recordCount;
        m.instructions = meta.instructions;
        m.kind = meta.kind;
        m.numCpus = meta.numCpus;
        if (!meta.chunks.empty()) {
            m.seqFirst = meta.chunks.front().firstSeq;
            auto last =
                reader->readChunk(meta.chunks.size() - 1);
            if (!last)
                return Result::failure(in.name + ": " + last.error());
            if (!last->empty())
                m.seqLast = last->back().seq;
        }

        FilePtr src(std::fopen(in.path.c_str(), "rb"), &std::fclose);
        if (!src)
            return Result::failure("cannot reopen " + in.path);
        unsigned char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), src.get())) > 0) {
            if (std::fwrite(buf, 1, n, out.get()) != n)
                return Result::failure("cannot write " + outPath);
            m.bytes += n;
        }
        if (std::ferror(src.get()))
            return Result::failure("cannot read " + in.path);
        pos += m.bytes;
        members.push_back(std::move(m));
    }

    const std::uint64_t catalogOffset = pos;
    std::vector<unsigned char> catalog;
    for (const ArchiveMember &m : members) {
        putU64(catalog, m.offset);
        putU64(catalog, m.bytes);
        putU64(catalog, m.configHash);
        putU64(catalog, m.records);
        putU64(catalog, m.instructions);
        putU64(catalog, m.seqFirst);
        putU64(catalog, m.seqLast);
        putU32(catalog, static_cast<std::uint32_t>(m.kind));
        putU32(catalog, m.numCpus);
        putU16(catalog, static_cast<std::uint16_t>(m.name.size()));
        catalog.insert(catalog.end(), m.name.data(),
                       m.name.data() + m.name.size());
    }
    if (std::fwrite(catalog.data(), 1, catalog.size(), out.get()) !=
        catalog.size())
        return Result::failure("cannot write " + outPath);

    header = buildArchiveHeader(
        static_cast<std::uint32_t>(members.size()), catalogOffset);
    if (std::fseek(out.get(), 0, SEEK_SET) != 0 ||
        std::fwrite(header.data(), 1, header.size(), out.get()) !=
            header.size() ||
        std::fflush(out.get()) != 0)
        return Result::failure("cannot write " + outPath);
    return Result(static_cast<std::uint64_t>(members.size()));
}

} // namespace tstream
