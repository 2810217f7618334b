/**
 * @file
 * Unit tests for the set-associative cache model: geometry, LRU
 * replacement, state transitions, invalidation, and the find-once
 * slot API.
 *
 * The differential suite embeds a frozen reference — the 24-byte-way
 * cache (tag, state and a 64-bit LRU stamp per way) that the packed
 * 8-byte way words replaced — and demands the same return values,
 * victims and resident counts on seeded operation mixes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

using Slot = Cache::Slot;
constexpr Slot kNoSlot = Cache::kNoSlot;

/** Read access through the slot API: refresh LRU on a hit. */
std::optional<CohState>
lookup(Cache &c, BlockId blk)
{
    const Slot s = c.find(blk);
    if (s == kNoSlot)
        return std::nullopt;
    c.touch(s);
    return c.stateAt(s);
}

/** Place @p blk in @p st whether or not it is resident. */
std::optional<Cache::Line>
insert(Cache &c, BlockId blk, CohState st)
{
    const Slot s = c.find(blk);
    if (s == kNoSlot)
        return c.fill(blk, st);
    c.setStateAt(s, st);
    c.touch(s);
    return std::nullopt;
}

/** Invalidate @p blk if resident; its prior state. */
std::optional<CohState>
invalidate(Cache &c, BlockId blk)
{
    const Slot s = c.find(blk);
    if (s == kNoSlot)
        return std::nullopt;
    const CohState prior = c.stateAt(s);
    c.invalidateAt(s);
    return prior;
}

TEST(Cache, GeometryFromConfig)
{
    CacheConfig cfg{64 * 1024, 2};
    EXPECT_EQ(cfg.numSets(), 64u * 1024 / (64 * 2));
    Cache c(cfg);
    EXPECT_EQ(c.residentCount(), 0u);
}

TEST(Cache, PaperConfigs)
{
    EXPECT_EQ(cachecfg::kL1.numSets(), 512u);
    EXPECT_EQ(cachecfg::kL2.numSets(), 8192u);
    EXPECT_EQ(cachecfg::kL2.ways, 16u);
}

TEST(Cache, MissThenHit)
{
    Cache c(CacheConfig{8 * 1024, 2});
    EXPECT_EQ(c.find(100), kNoSlot);
    EXPECT_FALSE(c.fill(100, CohState::Shared));
    const Slot s = c.find(100);
    ASSERT_NE(s, kNoSlot);
    EXPECT_EQ(c.stateAt(s), CohState::Shared);
}

TEST(Cache, InsertReturnsNoVictimWhenSetHasRoom)
{
    Cache c(CacheConfig{8 * 1024, 2});
    EXPECT_FALSE(c.fill(1, CohState::Shared).has_value());
    // Same set: sets = 64, so block 1 + 64 map together.
    EXPECT_FALSE(c.fill(1 + 64, CohState::Shared).has_value());
    EXPECT_EQ(c.residentCount(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way: fill a set, touch the first way, insert a third block;
    // the untouched way must be the victim.
    Cache c(CacheConfig{8 * 1024, 2});
    const std::uint64_t sets = CacheConfig{8 * 1024, 2}.numSets();
    const BlockId a = 7, b = 7 + sets, d = 7 + 2 * sets;
    c.fill(a, CohState::Shared);
    c.fill(b, CohState::Shared);
    c.touch(c.find(a)); // a is now MRU
    auto victim = c.fill(d, CohState::Shared);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->block, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_TRUE(c.probe(d));
    EXPECT_FALSE(c.probe(b));
}

TEST(Cache, ReinsertUpdatesStateWithoutEviction)
{
    Cache c(CacheConfig{8 * 1024, 2});
    c.fill(5, CohState::Shared);
    const Slot s = c.find(5);
    c.setStateAt(s, CohState::Modified);
    EXPECT_EQ(c.find(5), s);
    EXPECT_EQ(*c.probe(5), CohState::Modified);
    EXPECT_EQ(c.residentCount(), 1u);
}

TEST(Cache, VictimCarriesItsState)
{
    Cache c(CacheConfig{8 * 1024, 1}); // direct-mapped
    const std::uint64_t sets = CacheConfig{8 * 1024, 1}.numSets();
    c.fill(3, CohState::Modified);
    auto victim = c.fill(3 + sets, CohState::Shared);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->block, 3u);
    EXPECT_EQ(victim->state, CohState::Modified);
}

TEST(Cache, InvalidateReturnsPriorState)
{
    Cache c(CacheConfig{8 * 1024, 2});
    c.fill(9, CohState::Owned);
    const Slot s = c.find(9);
    ASSERT_NE(s, kNoSlot);
    EXPECT_EQ(c.stateAt(s), CohState::Owned);
    c.invalidateAt(s);
    EXPECT_FALSE(c.probe(9));
    EXPECT_EQ(c.find(9), kNoSlot);
}

TEST(Cache, SetStateOnResidentOnly)
{
    Cache c(CacheConfig{8 * 1024, 2});
    EXPECT_EQ(c.find(11), kNoSlot);
    c.fill(11, CohState::Shared);
    const Slot s = c.find(11);
    ASSERT_NE(s, kNoSlot);
    c.setStateAt(s, CohState::Modified);
    EXPECT_EQ(*c.probe(11), CohState::Modified);
}

TEST(Cache, ProbeDoesNotPerturbLru)
{
    Cache c(CacheConfig{8 * 1024, 2});
    const std::uint64_t sets = CacheConfig{8 * 1024, 2}.numSets();
    const BlockId a = 2, b = 2 + sets, d = 2 + 2 * sets;
    c.fill(a, CohState::Shared);
    c.fill(b, CohState::Shared);
    // Neither probe(a) nor find(a) refreshes it; a stays LRU and is
    // evicted.
    c.probe(a);
    c.find(a);
    auto victim = c.fill(d, CohState::Shared);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->block, a);
}

TEST(Cache, InvalidWaysArePreferredOverEviction)
{
    Cache c(CacheConfig{8 * 1024, 2});
    const std::uint64_t sets = CacheConfig{8 * 1024, 2}.numSets();
    c.fill(1, CohState::Shared);
    c.fill(1 + sets, CohState::Shared);
    c.invalidateAt(c.find(1));
    // Room exists again: no victim.
    EXPECT_FALSE(c.fill(1 + 2 * sets, CohState::Shared).has_value());
    EXPECT_EQ(c.residentCount(), 2u);
}

TEST(Cache, CountersTrackScansFillsEvictionsAndInvalidations)
{
    Cache c(CacheConfig{8 * 1024, 1}); // direct-mapped
    const std::uint64_t sets = CacheConfig{8 * 1024, 1}.numSets();
    c.find(4);                       // miss
    c.fill(4, CohState::Shared);     // no victim
    c.fill(4 + sets, CohState::Shared); // evicts 4
    c.invalidateAt(c.find(4 + sets));
    c.probe(4 + sets);               // probes are not counted
    const Cache::Counters &n = c.counters();
    EXPECT_EQ(n.finds, 2u);
    EXPECT_EQ(n.fills, 2u);
    EXPECT_EQ(n.evictions, 1u);
    EXPECT_EQ(n.invalidations, 1u);
}

TEST(Cache, LargestBlockIdsKeepTheirTags)
{
    // A block of a 64-bit address is below 2^58; the way word holds
    // up to kMaxBlock = 2^62 - 1. Blocks differing only in their top
    // tag bits share a set and must stay distinct.
    Cache c(CacheConfig{8 * 1024, 2});
    const BlockId top58 = (BlockId{1} << 58) - 1;
    const BlockId top62 = Cache::kMaxBlock;
    EXPECT_EQ(top58 & 63, top62 & 63); // same set
    c.fill(top58, CohState::Owned);
    c.fill(top62, CohState::Modified);
    EXPECT_EQ(*c.probe(top58), CohState::Owned);
    EXPECT_EQ(*c.probe(top62), CohState::Modified);
    EXPECT_FALSE(c.probe(top58 & 63));
    auto victim = c.fill(top58 & 63, CohState::Shared);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->block, top58);
    EXPECT_EQ(victim->state, CohState::Owned);
}

TEST(CacheDeathTest, RejectsBlockIdsBeyondTheTagWidth)
{
    Cache c(CacheConfig{8 * 1024, 2});
    EXPECT_DEATH(c.find(Cache::kMaxBlock + 1), "does not fit");
    EXPECT_DEATH(c.fill(BlockId{1} << 63, CohState::Shared),
                 "does not fit");
}

/** Property sweep: distinct blocks never exceed capacity. */
class CacheCapacityTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{
};

TEST_P(CacheCapacityTest, ResidentCountBounded)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheConfig{size, ways});
    const std::uint64_t capacity = size / kBlockSize;
    for (BlockId b = 0; b < 4 * capacity; ++b)
        insert(c, b * 977, CohState::Shared);
    EXPECT_LE(c.residentCount(), capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheCapacityTest,
    ::testing::Values(std::pair{4096ull, 1u}, std::pair{8192ull, 2u},
                      std::pair{65536ull, 2u}, std::pair{65536ull, 4u},
                      std::pair{1048576ull, 8u},
                      std::pair{8388608ull, 16u}));

// ---------------------------------------------------------------------
// Frozen reference: the 24-byte-way cache, verbatim apart from the
// class name.
// ---------------------------------------------------------------------

class RefCache
{
  public:
    /** Result of a lookup. */
    struct Line
    {
        BlockId block;
        CohState state;
    };

    explicit RefCache(const CacheConfig &cfg);

    /**
     * Look up @p blk. On a hit the LRU stamp is refreshed and the
     * line's state is returned; on a miss std::nullopt.
     */
    std::optional<CohState> lookup(BlockId blk);

    /** Like lookup() but without touching LRU state (for probes). */
    std::optional<CohState> probe(BlockId blk) const;

    /**
     * Insert @p blk in @p st, evicting the LRU way if the set is full.
     * @return the evicted line, if any.
     */
    std::optional<Line> insert(BlockId blk, CohState st);

    /**
     * Change the state of a resident block.
     * @return false if the block is not resident.
     */
    bool setState(BlockId blk, CohState st);

    /**
     * Invalidate @p blk if resident.
     * @return the line's prior state, if it was resident.
     */
    std::optional<CohState> invalidate(BlockId blk);

    /** Number of resident (non-invalid) lines. */
    std::size_t residentCount() const;

    const CacheConfig &config() const { return cfg_; }

  private:
    struct Way
    {
        BlockId tag = 0;
        CohState state = CohState::Invalid;
        std::uint64_t lru = 0;
    };

    std::uint64_t setIndex(BlockId blk) const { return blk & setMask_; }

    /** Find the way holding @p blk in its set, or -1. */
    int findWay(std::uint64_t set, BlockId blk) const;

    CacheConfig cfg_;
    std::uint64_t setMask_;
    unsigned ways_;
    std::vector<Way> lines_; ///< sets * ways, row-major
    std::uint64_t tick_ = 0;
};

RefCache::RefCache(const CacheConfig &cfg)
    : cfg_(cfg), ways_(cfg.ways)
{
    const std::uint64_t sets = cfg.numSets();
    panicIf(sets == 0 || (sets & (sets - 1)) != 0,
            "Cache: set count must be a nonzero power of two");
    panicIf(ways_ == 0, "Cache: zero ways");
    setMask_ = sets - 1;
    lines_.resize(sets * ways_);
}

int
RefCache::findWay(std::uint64_t set, BlockId blk) const
{
    const std::size_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        const Way &way = lines_[base + w];
        if (way.state != CohState::Invalid && way.tag == blk)
            return static_cast<int>(w);
    }
    return -1;
}

std::optional<CohState>
RefCache::lookup(BlockId blk)
{
    const std::uint64_t set = setIndex(blk);
    const int w = findWay(set, blk);
    if (w < 0)
        return std::nullopt;
    Way &way = lines_[set * ways_ + w];
    way.lru = ++tick_;
    return way.state;
}

std::optional<CohState>
RefCache::probe(BlockId blk) const
{
    const std::uint64_t set = setIndex(blk);
    const int w = findWay(set, blk);
    if (w < 0)
        return std::nullopt;
    return lines_[set * ways_ + w].state;
}

std::optional<RefCache::Line>
RefCache::insert(BlockId blk, CohState st)
{
    panicIf(st == CohState::Invalid, "Cache::insert of Invalid state");
    const std::uint64_t set = setIndex(blk);
    const std::size_t base = set * ways_;

    // Re-insertion of a resident block just updates state and LRU.
    const int hit = findWay(set, blk);
    if (hit >= 0) {
        Way &way = lines_[base + hit];
        way.state = st;
        way.lru = ++tick_;
        return std::nullopt;
    }

    // Prefer an invalid way; otherwise evict the LRU way.
    int victim = -1;
    std::uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = lines_[base + w];
        if (way.state == CohState::Invalid) {
            victim = static_cast<int>(w);
            oldest = 0;
            break;
        }
        if (way.lru < oldest) {
            oldest = way.lru;
            victim = static_cast<int>(w);
        }
    }

    Way &way = lines_[base + victim];
    std::optional<Line> evicted;
    if (way.state != CohState::Invalid)
        evicted = Line{way.tag, way.state};
    way.tag = blk;
    way.state = st;
    way.lru = ++tick_;
    return evicted;
}

bool
RefCache::setState(BlockId blk, CohState st)
{
    const std::uint64_t set = setIndex(blk);
    const int w = findWay(set, blk);
    if (w < 0)
        return false;
    lines_[set * ways_ + w].state = st;
    return true;
}

std::optional<CohState>
RefCache::invalidate(BlockId blk)
{
    const std::uint64_t set = setIndex(blk);
    const int w = findWay(set, blk);
    if (w < 0)
        return std::nullopt;
    Way &way = lines_[set * ways_ + w];
    const CohState prior = way.state;
    way.state = CohState::Invalid;
    return prior;
}

std::size_t
RefCache::residentCount() const
{
    std::size_t n = 0;
    for (const Way &w : lines_)
        if (w.state != CohState::Invalid)
            ++n;
    return n;
}

// ---------------------------------------------------------------------
// Differential suite
// ---------------------------------------------------------------------

::testing::AssertionResult
sameLine(const std::optional<RefCache::Line> &want,
         const std::optional<Cache::Line> &got)
{
    if (want.has_value() != got.has_value())
        return ::testing::AssertionFailure()
               << "victim presence differs: ref " << want.has_value()
               << ", packed " << got.has_value();
    if (want && (want->block != got->block || want->state != got->state))
        return ::testing::AssertionFailure()
               << "victim differs: ref {" << want->block << ", "
               << cohStateName(want->state) << "}, packed {"
               << got->block << ", " << cohStateName(got->state) << "}";
    return ::testing::AssertionSuccess();
}

CohState
validState(Rng &rng)
{
    return static_cast<CohState>(1 + rng.below(3));
}

/**
 * Drive a RefCache and a Cache of geometry @p cfg through @p ops
 * seeded operations on blocks in @p hotSets sets (plus a base offset
 * of @p blockBase), so sets overflow and evict. Every return value,
 * victim and (every @p countEvery ops) the resident count must agree.
 */
void
runDifferential(const CacheConfig &cfg, std::uint64_t seed,
                unsigned ops, std::uint64_t hotSets, BlockId blockBase,
                unsigned countEvery)
{
    RefCache ref(cfg);
    Cache packed(cfg);
    Rng rng(seed);
    const std::uint64_t sets = cfg.numSets();
    // Enough distinct tags per set to keep a full set evicting.
    const std::uint64_t tagsPerSet = 2 * cfg.ways + 1;
    auto pick = [&] {
        const std::uint64_t set = rng.below(hotSets) * (sets / hotSets);
        return blockBase + set + sets * rng.below(tagsPerSet);
    };
    for (unsigned i = 0; i < ops; ++i) {
        SCOPED_TRACE(::testing::Message() << "op " << i);
        const BlockId blk = pick();
        switch (rng.below(7)) {
          case 0:
            ASSERT_EQ(ref.lookup(blk), lookup(packed, blk));
            break;
          case 1:
            ASSERT_EQ(ref.probe(blk), packed.probe(blk));
            break;
          case 2: {
            const CohState st = validState(rng);
            ASSERT_TRUE(sameLine(ref.insert(blk, st),
                                 insert(packed, blk, st)));
            break;
          }
          case 3: {
            const CohState st = validState(rng);
            const Slot s = packed.find(blk);
            if (s != kNoSlot)
                packed.setStateAt(s, st);
            ASSERT_EQ(ref.setState(blk, st), s != kNoSlot);
            break;
          }
          case 4:
            ASSERT_EQ(ref.invalidate(blk), invalidate(packed, blk));
            break;
          default: {
            // find, then act on the slot: touch a hit, fill a miss.
            const CohState st = validState(rng);
            const Slot s = packed.find(blk);
            ASSERT_EQ(ref.probe(blk).has_value(), s != kNoSlot);
            if (s != kNoSlot) {
                ASSERT_EQ(ref.lookup(blk), packed.stateAt(s));
                packed.touch(s);
            } else {
                ASSERT_TRUE(
                    sameLine(ref.insert(blk, st), packed.fill(blk, st)));
            }
            break;
          }
        }
        if (i % countEvery == 0) {
            ASSERT_EQ(ref.residentCount(), packed.residentCount());
        }
    }
    ASSERT_EQ(ref.residentCount(), packed.residentCount());
}

TEST(CacheDifferential, L1GeometryMatchesReference)
{
    for (std::uint64_t seed : {1, 2, 3})
        runDifferential(cachecfg::kL1, seed, 200000, 64, 0, 97);
}

TEST(CacheDifferential, L2GeometryMatchesReference)
{
    for (std::uint64_t seed : {4, 5})
        runDifferential(cachecfg::kL2, seed, 200000, 128, 0, 20011);
}

TEST(CacheDifferential, SmallSixteenWaySetsKeepEvicting)
{
    // Four 16-way sets: nearly every miss displaces a line.
    for (std::uint64_t seed : {6, 7, 8})
        runDifferential(CacheConfig{4 * 16 * kBlockSize, 16}, seed,
                        200000, 4, 0, 31);
}

TEST(CacheDifferential, BlockIdsNearTheTopOfTheAddressSpace)
{
    // Blocks just below 2^58 (the last blocks of a 64-bit address
    // space) exercise the tag shift's upper bits.
    const BlockId base = (BlockId{1} << 58) - 64 * 1024;
    runDifferential(CacheConfig{4 * 16 * kBlockSize, 16}, 9, 100000, 4,
                    base, 31);
    runDifferential(cachecfg::kL1, 10, 100000, 64, base, 97);
}

} // namespace
} // namespace tstream
