#include "mem/cache.hh"

namespace tstream
{

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg), ways_(cfg.ways)
{
    const std::uint64_t sets = cfg.numSets();
    panicIf(sets == 0 || (sets & (sets - 1)) != 0,
            "Cache: set count must be a nonzero power of two");
    panicIf(ways_ == 0, "Cache: zero ways");
    setMask_ = sets - 1;
    words_.resize(sets * ways_);
    stamps_.resize(sets * ways_);
}

std::optional<Cache::Line>
Cache::fill(BlockId blk, CohState st)
{
    checkBlock(blk);
    if (st == CohState::Invalid)
        panic("Cache::fill of Invalid state");
    ++counters_.fills;
    const Slot base = static_cast<Slot>(blk & setMask_) * ways_;

    // Prefer an invalid way; otherwise evict the LRU way.
    Slot victim = base;
    std::uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < ways_; ++w) {
        if ((words_[base + w] & kStateMask) == 0) {
            victim = base + w;
            break;
        }
        if (stamps_[base + w] < oldest) {
            oldest = stamps_[base + w];
            victim = base + w;
        }
    }

    std::optional<Line> evicted;
    const Word old = words_[victim];
    if ((old & kStateMask) != 0) {
        ++counters_.evictions;
        evicted = Line{old >> kStateBits,
                       static_cast<CohState>(old & kStateMask)};
    }
    words_[victim] = blk << kStateBits | static_cast<Word>(st);
    stamps_[victim] = ++tick_;
    return evicted;
}

std::optional<CohState>
Cache::probe(BlockId blk) const
{
    const Slot s = findSlot(blk);
    if (s == kNoSlot)
        return std::nullopt;
    return stateAt(s);
}

std::size_t
Cache::residentCount() const
{
    std::size_t n = 0;
    for (const Word w : words_)
        if ((w & kStateMask) != 0)
            ++n;
    return n;
}

} // namespace tstream
