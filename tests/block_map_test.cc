/**
 * @file
 * Unit tests for BlockMap, the page-chunked block table under the
 * memory model: a seeded differential against std::unordered_map over
 * mixed operation sequences, keys spread across the simulated
 * segments, erase/re-insert and clear semantics, and reference
 * stability.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mem/block_map.hh"
#include "mem/sim_alloc.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

/** A value with a non-zero default, like the directory's entry. */
struct Entry
{
    std::uint32_t version = 0;
    int owner = -1;

    bool
    operator==(const Entry &o) const
    {
        return version == o.version && owner == o.owner;
    }
};

/**
 * Apply @p ops random tryEmplace/find/erase/size operations, with keys
 * from @p key, to a BlockMap and a std::unordered_map side by side;
 * every result must agree, and so must the final contents.
 */
void
runDifferential(std::uint64_t seed, std::size_t ops,
                const std::function<BlockId(Rng &)> &key)
{
    Rng rng(seed);
    BlockMap<Entry> map;
    std::unordered_map<BlockId, Entry> ref;
    std::vector<BlockId> seen;

    for (std::size_t i = 0; i < ops; ++i) {
        // Reuse an earlier key half the time so finds and erases hit.
        const BlockId blk = seen.empty() || rng.chance(0.5)
                                ? key(rng)
                                : seen[rng.below(seen.size())];
        const std::uint64_t op = rng.below(100);
        if (op < 45) {
            auto [v, fresh] = map.tryEmplace(blk);
            auto [it, refFresh] = ref.try_emplace(blk);
            ASSERT_EQ(fresh, refFresh) << "op " << i << " blk " << blk;
            ASSERT_EQ(*v, it->second) << "op " << i << " blk " << blk;
            v->version = it->second.version =
                static_cast<std::uint32_t>(rng.next());
            v->owner = it->second.owner = static_cast<int>(rng.below(16));
            if (fresh)
                seen.push_back(blk);
        } else if (op < 75) {
            const Entry *v = map.find(blk);
            auto it = ref.find(blk);
            ASSERT_EQ(v != nullptr, it != ref.end())
                << "op " << i << " blk " << blk;
            if (v) {
                ASSERT_EQ(*v, it->second) << "op " << i << " blk " << blk;
            }
        } else if (op < 95) {
            ASSERT_EQ(map.erase(blk), ref.erase(blk) == 1)
                << "op " << i << " blk " << blk;
        } else {
            ASSERT_EQ(map.size(), ref.size()) << "op " << i;
        }
    }

    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[blk, e] : ref) {
        const Entry *v = map.find(blk);
        ASSERT_NE(v, nullptr) << "blk " << blk;
        EXPECT_EQ(*v, e) << "blk " << blk;
    }
    for (BlockId blk : seen)
        EXPECT_EQ(map.find(blk) != nullptr, ref.count(blk) == 1)
            << "blk " << blk;
}

TEST(BlockMap, MatchesUnorderedMapOnPageDenseRuns)
{
    // Short sequential runs inside a few hundred pages: most chunks
    // fill up, the last-page memo is hit and missed in turn.
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        BlockId cursor = 0;
        runDifferential(seed, 200000, [&cursor](Rng &rng) {
            if (rng.chance(0.1))
                cursor = blockOf(seg::kBufferPool) +
                         rng.below(400) * kBlocksPerPage +
                         rng.below(kBlocksPerPage);
            return cursor++;
        });
    }
}

TEST(BlockMap, MatchesUnorderedMapOnUniformRandomBlocks)
{
    // No locality: nearly every key opens a new chunk and the index
    // grows many times.
    for (std::uint64_t seed : {4, 5}) {
        SCOPED_TRACE(seed);
        runDifferential(seed, 100000,
                        [](Rng &rng) { return rng.below(1ull << 28); });
    }
}

TEST(BlockMap, MatchesUnorderedMapAcrossSegments)
{
    // The same page offsets inside every segment of the simulated
    // address space: pages from different segments share one index,
    // and its probe chains, with pages a multiple of the segment
    // stride apart.
    const std::vector<Addr> bases = {
        seg::kKernelText, seg::kKernelHeap, seg::kBufferPool,
        seg::userHeap(0), seg::userHeap(7), seg::userHeap(300),
        seg::kDmaRegion,  seg::kDmaRegion + seg::kSegmentSize / 2};
    runDifferential(6, 200000, [&bases](Rng &rng) {
        return blockOf(bases[rng.below(bases.size())]) +
               rng.below(64) * kBlocksPerPage + rng.below(kBlocksPerPage);
    });
}

TEST(BlockMap, ReinsertAfterEraseIsValueInitialized)
{
    BlockMap<Entry> map;
    const BlockId blk = blockOf(seg::kKernelHeap) + 5;
    map[blk] = Entry{7, 3};
    map[blk + 1] = Entry{8, 4};
    ASSERT_TRUE(map.erase(blk));
    EXPECT_EQ(map.find(blk), nullptr);
    EXPECT_EQ(map.size(), 1u);

    auto [v, fresh] = map.tryEmplace(blk);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(*v, Entry{});
    EXPECT_EQ(*map.find(blk + 1), (Entry{8, 4})); // neighbour untouched

    BlockMap<std::uint32_t> counts;
    counts[9] = 42;
    ASSERT_TRUE(counts.erase(9));
    EXPECT_EQ(counts[9], 0u);
}

TEST(BlockMap, EraseOfAbsentKeyReturnsFalse)
{
    BlockMap<Entry> map;
    EXPECT_FALSE(map.erase(0));   // empty map
    map[0] = Entry{1, 1};
    EXPECT_FALSE(map.erase(1));   // same page, other block
    EXPECT_FALSE(map.erase(1ull << 40)); // page never seen
    EXPECT_TRUE(map.erase(0));
    EXPECT_FALSE(map.erase(0));   // already erased
    EXPECT_EQ(map.size(), 0u);
}

TEST(BlockMap, ClearForgetsEveryEntry)
{
    // Keys over many pages (so the index has grown), the last one
    // leaving its page in the memo.
    BlockMap<Entry> map;
    std::vector<BlockId> keys;
    for (BlockId p = 0; p < 300; ++p)
        keys.push_back(blockOf(seg::kBufferPool) + p * kBlocksPerPage +
                       p % kBlocksPerPage);
    for (BlockId k : keys)
        map[k] = Entry{7, 1};
    ASSERT_NE(map.find(keys.back()), nullptr); // memoized page
    map.clear();

    EXPECT_EQ(map.size(), 0u);
    for (BlockId k : keys)
        EXPECT_EQ(map.find(k), nullptr) << "blk " << k;

    auto [v, fresh] = map.tryEmplace(keys.back());
    EXPECT_TRUE(fresh);
    EXPECT_EQ(*v, Entry{});
    EXPECT_EQ(map[keys.front()], Entry{});
    EXPECT_EQ(map.size(), 2u);
}

TEST(BlockMap, HeldReferenceSurvivesInserts)
{
    // Callers hold an entry while inserting others: adding chunks and
    // growing the index must not move existing entries.
    BlockMap<Entry> map;
    Entry &held = map[blockOf(seg::kBufferPool)];
    held = Entry{11, 2};
    const Entry *addr = &held;
    for (BlockId p = 1; p <= 20000; ++p)
        map[blockOf(seg::kDmaRegion) + p * kBlocksPerPage] =
            Entry{static_cast<std::uint32_t>(p), 0};
    EXPECT_EQ(map.find(blockOf(seg::kBufferPool)), addr);
    EXPECT_EQ(held, (Entry{11, 2}));
    held.owner = 5;
    EXPECT_EQ(map.find(blockOf(seg::kBufferPool))->owner, 5);
    EXPECT_EQ(map.size(), 20001u);
}

} // namespace
} // namespace tstream
