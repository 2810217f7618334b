/**
 * @file
 * Set-associative cache with true-LRU replacement.
 *
 * This is a functional (timing-free) model: the paper collects traces
 * with in-order execution and no memory-system stalls, so all we need
 * is hit/miss/eviction behaviour and per-line coherence state.
 */

#ifndef TSTREAM_MEM_CACHE_HH
#define TSTREAM_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/address.hh"
#include "mem/coherence.hh"
#include "util/logging.hh"

namespace tstream
{

/** Geometry of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 0;
    unsigned ways = 1;

    /** Number of sets implied by the geometry. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (kBlockSize * ways);
    }
};

/** Standard configurations from the paper's system models. */
namespace cachecfg
{
/** 64 KB 2-way L1 (per paper: split I/D; we model the D side). */
constexpr CacheConfig kL1{64 * 1024, 2};
/** 8 MB 16-way L2. */
constexpr CacheConfig kL2{8 * 1024 * 1024, 16};
} // namespace cachecfg

/**
 * A set-associative cache of coherence-stated blocks.
 *
 * The cache stores no data. Each way is one 8-byte word,
 * `block << 2 | state` (CohState fits in 2 bits, and state 0 is
 * Invalid), so a tag match is one XOR and compare per way and a
 * 16-way set's tags fill two host cache lines. LRU stamps live in a
 * parallel array that only touch() and fill() write.
 *
 * Callers scan a set once per access: find() returns the way's slot,
 * and stateAt(), touch(), setStateAt() and invalidateAt() act on that
 * slot. fill() places a block known to be absent; it does only the
 * victim search and returns the victim, so callers can maintain
 * inclusion or write-back invariants.
 */
class Cache
{
  public:
    /** A resident block and its state (fill()'s victim). */
    struct Line
    {
        BlockId block;
        CohState state;
    };

    /** Index of one way in the cache; kNoSlot when a find misses. */
    using Slot = std::size_t;
    static constexpr Slot kNoSlot = SIZE_MAX;

    /** Largest block id a way word can hold (tag << 2 must fit). */
    static constexpr BlockId kMaxBlock = (BlockId{1} << 62) - 1;

    /**
     * Work done since construction. Plain members on the hot path;
     * the system models sum them per level once per simulated cell.
     */
    struct Counters
    {
        std::uint64_t finds = 0;         ///< set scans for a tag
        std::uint64_t fills = 0;         ///< victim searches
        std::uint64_t evictions = 0;     ///< fills that displaced a line
        std::uint64_t invalidations = 0; ///< invalidateAt() calls

        Counters &
        operator+=(const Counters &o)
        {
            finds += o.finds;
            fills += o.fills;
            evictions += o.evictions;
            invalidations += o.invalidations;
            return *this;
        }
    };

    explicit Cache(const CacheConfig &cfg);

    /** Scan @p blk's set once; the slot holding it, or kNoSlot. */
    Slot
    find(BlockId blk)
    {
        ++counters_.finds;
        return findSlot(blk);
    }

    /** State of the line at @p s (a slot find() returned). */
    CohState
    stateAt(Slot s) const
    {
        return static_cast<CohState>(words_[s] & kStateMask);
    }

    /** Make the line at @p s the most recently used of its set. */
    void touch(Slot s) { stamps_[s] = ++tick_; }

    /** Change the state of the resident line at @p s (not to Invalid;
     *  use invalidateAt()). LRU is left alone. */
    void
    setStateAt(Slot s, CohState st)
    {
        words_[s] = (words_[s] & ~kStateMask) | static_cast<Word>(st);
    }

    /** Invalidate the resident line at @p s. */
    void
    invalidateAt(Slot s)
    {
        ++counters_.invalidations;
        words_[s] &= ~kStateMask;
    }

    /**
     * Place @p blk, which must not be resident, in @p st as the most
     * recently used line of its set: an invalid way if there is one,
     * else the LRU way.
     * @return the evicted line, if any.
     */
    std::optional<Line> fill(BlockId blk, CohState st);

    /** State of @p blk without touching LRU or counters (tests). */
    std::optional<CohState> probe(BlockId blk) const;

    /** Number of resident (non-invalid) lines. */
    std::size_t residentCount() const;

    const Counters &counters() const { return counters_; }

    const CacheConfig &config() const { return cfg_; }

  private:
    using Word = std::uint64_t;
    static constexpr unsigned kStateBits = 2;
    static constexpr Word kStateMask = (Word{1} << kStateBits) - 1;

    static void
    checkBlock(BlockId blk)
    {
        if (blk > kMaxBlock)
            panic("Cache: block id does not fit a way's tag");
    }

    Slot
    findSlot(BlockId blk) const
    {
        checkBlock(blk);
        const Slot base = static_cast<Slot>(blk & setMask_) * ways_;
        const Word key = blk << kStateBits;
        const Word *set = words_.data() + base;
        for (unsigned w = 0; w < ways_; ++w) {
            // Same tag leaves only the state bits: 1..3 when valid.
            if ((set[w] ^ key) - 1 < kStateMask)
                return base + w;
        }
        return kNoSlot;
    }

    CacheConfig cfg_;
    std::uint64_t setMask_;
    unsigned ways_;
    std::vector<Word> words_;           ///< sets * ways, row-major
    std::vector<std::uint64_t> stamps_; ///< LRU stamp per way
    std::uint64_t tick_ = 0;
    Counters counters_;
};

} // namespace tstream

#endif // TSTREAM_MEM_CACHE_HH
