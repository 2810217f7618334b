/**
 * @file
 * BlockMap: the block-keyed table behind the memory model's
 * per-block state (writer history, per-reader read versions, the
 * multi-chip directory) and the temporal prefetcher's stream index.
 *
 * The layout follows the traffic: the blocks of one 4 KB page are
 * mostly touched together (sequential scans, page-sized I/O buffers,
 * packed heap objects), so entries are stored in page-sized chunks of
 * kBlocksPerPage slots with a 64-bit presence mask, and only the page
 * number goes through a hash index:
 *
 *  - index: open addressing on the page number, linear probing, a
 *    Fibonacci (multiplicative) hash, grown at 3/4 load, plus a
 *    one-entry last-page memo that catches runs within a page;
 *  - chunks: held in a std::deque, so a V& stays valid across later
 *    inserts (callers hold an entry while inserting others);
 *  - erase clears the presence bit only: a chunk lives until the map
 *    is cleared or destroyed, so the index never needs tombstones.
 *
 * A BlockMap is not safe for concurrent use, not even for concurrent
 * reads: find() updates the memo.
 */

#ifndef TSTREAM_MEM_BLOCK_MAP_HH
#define TSTREAM_MEM_BLOCK_MAP_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "mem/address.hh"

namespace tstream
{

/** Map from BlockId to a value-initialized V, chunked by page. */
template <typename V>
class BlockMap
{
    static_assert(kBlocksPerPage == 64,
                  "BlockMap's presence mask holds one page of blocks");

  public:
    BlockMap() : index_(kInitialSlots), shift_(64 - kInitialBits) {}

    // The index points into chunks_: a copy would alias the source.
    BlockMap(const BlockMap &) = delete;
    BlockMap &operator=(const BlockMap &) = delete;

    /** @return the entry for @p blk, or nullptr if absent. */
    const V *
    find(BlockId blk) const
    {
        const Chunk *c = chunkOf(blk >> kSlotBits);
        return c && (c->present & bitOf(blk)) ? &c->slots[slotOf(blk)]
                                              : nullptr;
    }

    V *
    find(BlockId blk)
    {
        return const_cast<V *>(std::as_const(*this).find(blk));
    }

    /**
     * The entry for @p blk, inserting a value-initialized one if
     * absent. @return the entry and whether it was inserted.
     */
    std::pair<V *, bool>
    tryEmplace(BlockId blk)
    {
        Chunk &c = chunkFor(blk >> kSlotBits);
        V &v = c.slots[slotOf(blk)];
        const std::uint64_t bit = bitOf(blk);
        if (c.present & bit)
            return {&v, false};
        c.present |= bit;
        v = V{};
        ++size_;
        return {&v, true};
    }

    /** The entry for @p blk, inserting a value-initialized one. */
    V &operator[](BlockId blk) { return *tryEmplace(blk).first; }

    /** Remove @p blk's entry. @return false if it was absent. */
    bool
    erase(BlockId blk)
    {
        Chunk *c = chunkOf(blk >> kSlotBits);
        const std::uint64_t bit = bitOf(blk);
        if (!c || !(c->present & bit))
            return false;
        c->present &= ~bit;
        --size_;
        return true;
    }

    /** Number of entries present. */
    std::size_t size() const { return size_; }

    /** Remove every entry: drop all chunks and shrink the index back
     *  to its initial size, so a reused map starts empty. */
    void
    clear()
    {
        chunks_.clear();
        index_ = std::vector<Slot>(kInitialSlots);
        shift_ = 64 - kInitialBits;
        size_ = 0;
        memoPage_ = kNoPage;
        memoChunk_ = nullptr;
    }

  private:
    static constexpr unsigned kSlotBits = kPageBits - kBlockBits;
    static constexpr unsigned kInitialBits = 4;
    static constexpr std::size_t kInitialSlots = std::size_t{1}
                                                 << kInitialBits;
    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

    struct Chunk
    {
        std::uint64_t present = 0; ///< bit i: slots[i] holds an entry
        V slots[kBlocksPerPage];
    };

    struct Slot
    {
        std::uint64_t page = kNoPage;
        Chunk *chunk = nullptr;
    };

    static std::size_t
    slotOf(BlockId blk)
    {
        return static_cast<std::size_t>(blk & (kBlocksPerPage - 1));
    }

    static std::uint64_t
    bitOf(BlockId blk)
    {
        return std::uint64_t{1} << slotOf(blk);
    }

    /** Fibonacci hash of @p page onto the current index size. */
    std::size_t
    home(std::uint64_t page) const
    {
        return static_cast<std::size_t>(
            (page * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** @return @p page's chunk, or nullptr if it has none. */
    Chunk *
    chunkOf(std::uint64_t page) const
    {
        if (page == memoPage_)
            return memoChunk_;
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = home(page);; i = (i + 1) & mask) {
            const Slot &s = index_[i];
            if (s.page == page) {
                memoPage_ = page;
                memoChunk_ = s.chunk;
                return s.chunk;
            }
            if (s.page == kNoPage)
                return nullptr;
        }
    }

    /** @return @p page's chunk, creating an empty one if absent. */
    Chunk &
    chunkFor(std::uint64_t page)
    {
        if (Chunk *c = chunkOf(page))
            return *c;
        if ((chunks_.size() + 1) * 4 > index_.size() * 3)
            grow();
        Chunk &c = chunks_.emplace_back();
        place(page, &c);
        memoPage_ = page;
        memoChunk_ = &c;
        return c;
    }

    /** Insert @p page (known absent) into the index. */
    void
    place(std::uint64_t page, Chunk *c)
    {
        const std::size_t mask = index_.size() - 1;
        std::size_t i = home(page);
        while (index_[i].page != kNoPage)
            i = (i + 1) & mask;
        index_[i] = Slot{page, c};
    }

    void
    grow()
    {
        std::vector<Slot> old(index_.size() * 2);
        old.swap(index_);
        --shift_;
        for (const Slot &s : old)
            if (s.page != kNoPage)
                place(s.page, s.chunk);
    }

    std::vector<Slot> index_; ///< size is a power of two
    unsigned shift_;          ///< 64 - log2(index_.size())
    std::deque<Chunk> chunks_;
    std::size_t size_ = 0;
    mutable std::uint64_t memoPage_ = kNoPage;
    mutable Chunk *memoChunk_ = nullptr;
};

} // namespace tstream

#endif // TSTREAM_MEM_BLOCK_MAP_HH
