#include "mem/singlechip.hh"

namespace tstream
{

SingleChipSystem::SingleChipSystem(const SingleChipConfig &cfg)
    : cfg_(cfg), l2_(cfg.l2), intraTracker_(cfg.cores), chipTracker_(1)
{
    panicIf(cfg.cores == 0 || cfg.cores > 32,
            "SingleChipSystem: core count must be in [1, 32]");
    l1_.reserve(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c)
        l1_.emplace_back(cfg.l1);
    offChip_.numCpus = cfg.cores;
    intraChip_.numCpus = cfg.cores;
}

MemorySystem::CacheLevelCounters
SingleChipSystem::cacheCounters() const
{
    CacheLevelCounters n;
    for (const Cache &c : l1_)
        n.l1 += c.counters();
    n.l2 = l2_.counters();
    return n;
}

std::optional<CohState>
SingleChipSystem::probeL1(unsigned core, BlockId blk) const
{
    return l1_[core].probe(blk);
}

std::optional<CohState>
SingleChipSystem::probeL2(BlockId blk) const
{
    return l2_.probe(blk);
}

void
SingleChipSystem::fillL1(unsigned core, BlockId blk, CohState st)
{
    auto evicted = l1_[core].fill(blk, st);
    if (evicted && dirty(evicted->state)) {
        // Non-inclusive hierarchy: dirty L1 victims are written back
        // into the L2 (allocating there; an L2 victim writes back to
        // memory implicitly).
        const Cache::Slot s = l2_.find(evicted->block);
        if (s != Cache::kNoSlot) {
            l2_.setStateAt(s, CohState::Modified);
            l2_.touch(s);
        } else {
            l2_.fill(evicted->block, CohState::Modified);
        }
    }
}

void
SingleChipSystem::offChipFill(const Access &acc, BlockId blk)
{
    const MissClass cls = chipTracker_.classifyRead(blk, 0);
    recordOffChipMiss(blk, acc.cpu, static_cast<std::uint8_t>(cls),
                      acc.fn);
    l2_.fill(blk, CohState::Shared);
}

void
SingleChipSystem::accessBlock(const Access &acc)
{
    const BlockId blk = blockOf(acc.addr);
    switch (acc.type) {
      case AccessType::Read:
        handleRead(acc, blk);
        break;
      case AccessType::Write:
        handleWrite(acc, blk);
        break;
      case AccessType::DmaWrite:
        handleIoWrite(acc, blk, kWriterDma);
        break;
      case AccessType::NonAllocWrite:
        handleIoWrite(acc, blk, kWriterCopyout);
        break;
    }
}

void
SingleChipSystem::accessBlockRun(const Access *accs, std::size_t n)
{
    // One virtual call for the whole run; every element dispatches
    // directly into the protocol handlers.
    for (std::size_t i = 0; i < n; ++i)
        SingleChipSystem::accessBlock(accs[i]);
}

void
SingleChipSystem::handleRead(const Access &acc, BlockId blk)
{
    const unsigned core = acc.cpu;

    // L1 hit.
    if (const Cache::Slot s = l1_[core].find(blk); s != Cache::kNoSlot) {
        l1_[core].touch(s);
        return;
    }

    // L1 read miss: determine cause before updating history.
    const bool cohCause = intraTracker_.coherenceCaused(blk, core);
    (void)intraTracker_.classifyRead(blk, core);

    // Find an on-chip supplier: a peer L1 with an owned/modified (or,
    // because the hierarchy is non-inclusive, even shared) copy, or the
    // shared L2.
    int peer = -1;
    Cache::Slot peerSlot = Cache::kNoSlot;
    for (unsigned p = 0; p < cfg_.cores && peer < 0; ++p) {
        if (p == core)
            continue;
        peerSlot = l1_[p].find(blk);
        if (peerSlot != Cache::kNoSlot)
            peer = static_cast<int>(p);
    }
    const bool peerDirty =
        peer >= 0 &&
        dirty(l1_[static_cast<unsigned>(peer)].stateAt(peerSlot));

    // A dirty peer supplies whatever the L2 holds.
    const Cache::Slot l2Slot =
        peerDirty ? Cache::kNoSlot : l2_.find(blk);

    IntraClass icls;
    if (peer >= 0 && (peerDirty || l2Slot == Cache::kNoSlot)) {
        // Peer L1 supplies. Dirty owners downgrade M -> O and keep
        // ownership (Piranha-style); the requestor fills Shared. A
        // dirty-peer supply is a cache-to-cache transfer and counts
        // as Coherence:Peer-L1 regardless of the reader's history
        // (classification by supplier, as in the paper's Figure 1
        // right); a clean-peer supply of a merely-L2-evicted block is
        // replacement traffic.
        if (peerDirty)
            l1_[static_cast<unsigned>(peer)].setStateAt(peerSlot,
                                                        CohState::Owned);
        icls = (peerDirty || cohCause) ? IntraClass::CoherencePeerL1
                                       : IntraClass::ReplacementL2;
    } else if (l2Slot != Cache::kNoSlot) {
        l2_.touch(l2Slot);
        icls = cohCause ? IntraClass::CoherenceL2
                        : IntraClass::ReplacementL2;
    } else {
        icls = IntraClass::OffChip;
        offChipFill(acc, blk);
    }
    fillL1(core, blk, CohState::Shared);

    if (tracing_) {
        intraChip_.misses.push_back(MissRecord{
            nextIntraSeq(), blk, static_cast<CpuId>(core),
            static_cast<std::uint8_t>(icls), acc.fn});
    }
}

void
SingleChipSystem::handleWrite(const Access &acc, BlockId blk)
{
    const unsigned core = acc.cpu;
    intraTracker_.recordWrite(blk, static_cast<int>(core));
    chipTracker_.recordWrite(blk, 0);
    Cache &l1 = l1_[core];

    // Write hit in Modified: done.
    const Cache::Slot s = l1.find(blk);
    if (s != Cache::kNoSlot && l1.stateAt(s) == CohState::Modified) {
        l1.touch(s);
        return;
    }

    // Invalidate peers; ownership moves to this core's L1. The L2 copy
    // (if any) becomes stale; drop it. The up-to-date copy lives in
    // this L1 in Modified and is written back on eviction.
    invalidateOthers(core, blk);

    if (s != Cache::kNoSlot) {
        l1.setStateAt(s, CohState::Modified);
        l1.touch(s);
    } else {
        // A store to a block absent from the chip (its L2 copy was
        // just dropped) allocates silently: store misses are not part
        // of the paper's read-miss traces.
        chipTracker_.recordTouch(blk);
        fillL1(core, blk, CohState::Modified);
    }
}

void
SingleChipSystem::handleIoWrite(const Access &acc, BlockId blk, int writer)
{
    (void)acc;
    intraTracker_.recordWrite(blk, writer);
    chipTracker_.recordWrite(blk, writer);
    invalidateOthers(cfg_.cores, blk);
}

void
SingleChipSystem::invalidateOthers(unsigned core, BlockId blk)
{
    for (unsigned p = 0; p < cfg_.cores; ++p) {
        if (p == core)
            continue;
        if (const Cache::Slot s = l1_[p].find(blk); s != Cache::kNoSlot)
            l1_[p].invalidateAt(s);
    }
    if (const Cache::Slot s = l2_.find(blk); s != Cache::kNoSlot)
        l2_.invalidateAt(s);
}

} // namespace tstream
