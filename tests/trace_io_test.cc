/**
 * @file
 * Trace serialization tests: v2 round trips, v1 read equivalence,
 * chunking, compression, the embedded function table, and rejection
 * of malformed files through the TraceResult error contract.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "trace/trace_io.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

MissTrace
makeTrace(std::uint64_t count, std::uint64_t rngSeed = 55)
{
    Rng rng(rngSeed);
    MissTrace t;
    t.numCpus = 16;
    t.instructions = 99'000'000;
    for (std::uint64_t i = 0; i < count; ++i) {
        MissRecord m;
        m.seq = i * 3;
        m.block = rng.next() >> 8;
        m.cpu = static_cast<CpuId>(rng.below(16));
        m.cls = static_cast<std::uint8_t>(rng.below(4));
        m.fn = static_cast<FnId>(rng.below(500));
        t.misses.push_back(m);
    }
    return t;
}

void
expectSameRecords(const MissTrace &a, const MissTrace &b)
{
    ASSERT_EQ(a.misses.size(), b.misses.size());
    EXPECT_EQ(a.numCpus, b.numCpus);
    EXPECT_EQ(a.instructions, b.instructions);
    for (std::size_t i = 0; i < a.misses.size(); ++i) {
        EXPECT_EQ(a.misses[i].seq, b.misses[i].seq) << "record " << i;
        EXPECT_EQ(a.misses[i].block, b.misses[i].block) << "record " << i;
        EXPECT_EQ(a.misses[i].cpu, b.misses[i].cpu) << "record " << i;
        EXPECT_EQ(a.misses[i].cls, b.misses[i].cls) << "record " << i;
        EXPECT_EQ(a.misses[i].fn, b.misses[i].fn) << "record " << i;
    }
}

long
sizeOf(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long s = std::ftell(f);
    std::fclose(f);
    return s;
}

void
corruptByte(const std::string &path, long offset, unsigned char value)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(value, f);
    std::fclose(f);
}

void
truncateTo(const std::string &src, const std::string &dst, long bytes)
{
    std::ifstream in(src, std::ios::binary);
    std::vector<char> buf(static_cast<std::size_t>(bytes));
    in.read(buf.data(), bytes);
    std::ofstream out(dst, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), in.gcount());
}

TEST(TraceIo, EmptyTraceRoundTrip)
{
    MissTrace t;
    t.numCpus = 4;
    t.instructions = 12345;
    const auto path = tmpPath("empty.tst");
    ASSERT_TRUE(saveTrace(t, path));
    const auto back = loadTrace(path);
    ASSERT_TRUE(back) << back.error();
    EXPECT_EQ(back->numCpus, 4u);
    EXPECT_EQ(back->instructions, 12345u);
    EXPECT_TRUE(back->misses.empty());
    std::remove(path.c_str());
}

TEST(TraceIo, RandomTraceRoundTrip)
{
    const MissTrace t = makeTrace(10'000);
    const auto path = tmpPath("random.tst");
    ASSERT_TRUE(saveTrace(t, path));
    const auto back = loadTrace(path);
    ASSERT_TRUE(back) << back.error();
    expectSameRecords(t, *back);
    std::remove(path.c_str());
}

/** A v1 file from the last v1 writer: makeTrace(200), seed 55. */
const std::string kV1Fixture =
    std::string(TSTREAM_TEST_DATA_DIR) + "/trace_v1.tst";

TEST(TraceIo, V1RoundTripEquivalence)
{
    const MissTrace t = makeTrace(200);
    const auto v2 = tmpPath("equiv.v2.tst");
    ASSERT_TRUE(saveTrace(t, v2));

    const auto fromV1 = loadTrace(kV1Fixture);
    const auto fromV2 = loadTrace(v2);
    ASSERT_TRUE(fromV1) << fromV1.error();
    ASSERT_TRUE(fromV2) << fromV2.error();
    expectSameRecords(t, *fromV1);
    expectSameRecords(*fromV1, *fromV2);

    auto reader = TraceReader::open(kV1Fixture);
    ASSERT_TRUE(reader) << reader.error();
    EXPECT_EQ(reader->meta().version, 1u);
    EXPECT_EQ(reader->meta().recordCount, 200u);
    EXPECT_FALSE(reader->hasFunctions());
    std::remove(v2.c_str());
}

TEST(TraceIo, CompressionOnOffEquivalence)
{
    // A highly repetitive trace: the same 16-block loop over and over,
    // the shape temporal streams actually have.
    MissTrace t;
    t.numCpus = 4;
    t.instructions = 1'000'000;
    for (std::uint64_t i = 0; i < 20'000; ++i) {
        MissRecord m;
        m.seq = i;
        m.block = 0x1000 + (i % 16) * 2;
        m.cpu = static_cast<CpuId>(i % 4);
        m.cls = static_cast<std::uint8_t>(i % 3);
        m.fn = static_cast<FnId>(i % 7);
        t.misses.push_back(m);
    }

    const auto raw = tmpPath("codec.none.tst");
    const auto lz4 = tmpPath("codec.lz4.tst");
    TraceWriteOptions opts;
    opts.codec = CodecId::None;
    ASSERT_TRUE(saveTrace(t, raw, opts));
    opts.codec = CodecId::Lz4;
    ASSERT_TRUE(saveTrace(t, lz4, opts));

    const auto fromRaw = loadTrace(raw);
    const auto fromLz4 = loadTrace(lz4);
    ASSERT_TRUE(fromRaw) << fromRaw.error();
    ASSERT_TRUE(fromLz4) << fromLz4.error();
    expectSameRecords(*fromRaw, *fromLz4);
    expectSameRecords(t, *fromLz4);
    EXPECT_LT(sizeOf(lz4), sizeOf(raw));

    auto reader = TraceReader::open(lz4);
    ASSERT_TRUE(reader) << reader.error();
    EXPECT_EQ(reader->meta().codec,
              static_cast<std::uint32_t>(CodecId::Lz4));
    std::remove(raw.c_str());
    std::remove(lz4.c_str());
}

TEST(TraceIo, MultiChunkBoundaries)
{
    const MissTrace t = makeTrace(100);
    const auto path = tmpPath("chunks.tst");
    TraceWriteOptions opts;
    opts.chunkRecords = 7;
    ASSERT_TRUE(saveTrace(t, path, opts));

    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    ASSERT_EQ(reader->meta().chunks.size(), 15u); // ceil(100 / 7)
    EXPECT_EQ(reader->meta().chunks.back().records, 100u % 7);

    // Chunks are self-contained: random access must see absolute
    // values, not deltas relative to earlier chunks.
    auto third = reader->readChunk(3);
    ASSERT_TRUE(third) << third.error();
    ASSERT_EQ(third->size(), 7u);
    for (std::size_t i = 0; i < third->size(); ++i) {
        EXPECT_EQ((*third)[i].seq, t.misses[21 + i].seq);
        EXPECT_EQ((*third)[i].block, t.misses[21 + i].block);
    }
    EXPECT_EQ(reader->meta().chunks[3].firstSeq, t.misses[21].seq);

    const auto back = reader->readAll();
    ASSERT_TRUE(back) << back.error();
    expectSameRecords(t, *back);
    std::remove(path.c_str());
}

TEST(TraceIo, SingleRecordAndChunkExactFit)
{
    // Record counts at and around the chunk boundary.
    for (std::uint64_t count : {1u, 6u, 7u, 8u, 14u}) {
        const MissTrace t = makeTrace(count, count);
        const auto path = tmpPath("fit.tst");
        TraceWriteOptions opts;
        opts.chunkRecords = 7;
        ASSERT_TRUE(saveTrace(t, path, opts));
        const auto back = loadTrace(path);
        ASSERT_TRUE(back) << back.error();
        expectSameRecords(t, *back);
        std::remove(path.c_str());
    }
}

TEST(TraceIo, FunctionTableRoundTrip)
{
    FunctionRegistry reg;
    const FnId copy = reg.intern("default_copyout",
                                 Category::BulkMemoryCopies);
    const FnId disp = reg.intern("disp_getbest",
                                 Category::KernelScheduler);

    MissTrace t = makeTrace(50);
    for (auto &m : t.misses)
        m.fn = m.seq % 2 ? copy : disp;
    const auto path = tmpPath("fns.tst");
    TraceWriteOptions opts;
    opts.registry = &reg;
    opts.kind = TraceContentKind::OffChip;
    opts.configHash = 0xDEADBEEFCAFEF00Dull;
    ASSERT_TRUE(saveTrace(t, path, opts));

    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    EXPECT_EQ(reader->meta().kind, TraceContentKind::OffChip);
    EXPECT_EQ(reader->meta().configHash, 0xDEADBEEFCAFEF00Dull);
    ASSERT_TRUE(reader->hasFunctions());
    ASSERT_EQ(reader->meta().functions.size(), 3u); // incl. <unknown>

    auto back = reader->functions();
    ASSERT_TRUE(back) << back.error();
    EXPECT_EQ(back->size(), reg.size());
    EXPECT_EQ(back->name(copy), "default_copyout");
    EXPECT_EQ(back->category(copy), Category::BulkMemoryCopies);
    EXPECT_EQ(back->name(disp), "disp_getbest");
    EXPECT_EQ(back->category(disp), Category::KernelScheduler);
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails)
{
    const auto r = loadTrace("/nonexistent-dir/missing.tst");
    EXPECT_FALSE(r);
    EXPECT_NE(r.error().find("cannot open"), std::string::npos);
}

TEST(TraceIo, BadMagicRejected)
{
    const auto path = tmpPath("magic.tst");
    ASSERT_TRUE(saveTrace(makeTrace(10), path));
    corruptByte(path, 0, 'X');
    const auto r = loadTrace(path);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error().find("bad magic"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, UnsupportedVersionRejected)
{
    const auto path = tmpPath("version.tst");
    ASSERT_TRUE(saveTrace(makeTrace(10), path));
    corruptByte(path, 4, 99);
    const auto r = loadTrace(path);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error().find("unsupported version"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, UnknownCodecRejected)
{
    const auto path = tmpPath("codec.tst");
    ASSERT_TRUE(saveTrace(makeTrace(10), path));
    corruptByte(path, 20, 42); // codec id field of the v2 header
    const auto r = loadTrace(path);
    EXPECT_FALSE(r);
    EXPECT_NE(r.error().find("unknown codec"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFilesRejected)
{
    const auto path = tmpPath("full.tst");
    ASSERT_TRUE(saveTrace(makeTrace(1'000), path));
    const long full = sizeOf(path);

    const auto cut = tmpPath("cut.tst");
    // Mid-magic, mid-header, mid-payload, and just shy of the full
    // index: every prefix must fail cleanly, never abort.
    for (long bytes : {2L, 20L, full / 2, full - 4}) {
        truncateTo(path, cut, bytes);
        const auto r = loadTrace(cut);
        EXPECT_FALSE(r) << "prefix of " << bytes << " bytes";
        EXPECT_FALSE(r.error().empty());
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(TraceIo, TruncatedV1Rejected)
{
    const long full = sizeOf(kV1Fixture);
    const auto cut = tmpPath("v1cut.tst");
    for (long bytes : {10L, 27L, full - 7}) {
        truncateTo(kV1Fixture, cut, bytes);
        const auto r = loadTrace(cut);
        EXPECT_FALSE(r) << "prefix of " << bytes << " bytes";
    }
    std::remove(cut.c_str());
}

TEST(TraceIo, CorruptCompressedChunkRejected)
{
    MissTrace t;
    t.numCpus = 1;
    t.instructions = 1000;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
        MissRecord m;
        m.seq = i;
        m.block = i % 8;
        t.misses.push_back(m);
    }
    const auto path = tmpPath("corrupt.tst");
    ASSERT_TRUE(saveTrace(t, path));

    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader) << reader.error();
    ASSERT_FALSE(reader->meta().chunks.empty());
    const auto &chunk = reader->meta().chunks[0];
    ASSERT_GT(chunk.storedBytes, 64u);
    // Flip bytes inside the compressed payload; decode must fail or
    // at minimum not crash (a flipped literal can decode to different
    // records, but the common case trips the codec's bounds checks).
    corruptByte(path, static_cast<long>(chunk.offset) + 8 + 3, 0xFF);
    corruptByte(path, static_cast<long>(chunk.offset) + 8 + 4, 0xFF);
    corruptByte(path, static_cast<long>(chunk.offset) + 8 + 5, 0xFF);
    auto damaged = TraceReader::open(path);
    ASSERT_TRUE(damaged) << damaged.error();
    auto records = damaged->readChunk(0);
    if (!records) {
        EXPECT_FALSE(records.error().empty());
    }
    std::remove(path.c_str());
}

TEST(TraceIo, SaveToInvalidPathFails)
{
    MissTrace t;
    EXPECT_FALSE(saveTrace(t, "/nonexistent-dir/x/y/z.tst"));
}

} // namespace
} // namespace tstream
