#include "mem/multichip.hh"

namespace tstream
{

MultiChipSystem::MultiChipSystem(const MultiChipConfig &cfg)
    : cfg_(cfg), tracker_(cfg.nodes)
{
    panicIf(cfg.nodes == 0 || cfg.nodes > 32,
            "MultiChipSystem: node count must be in [1, 32]");
    l1_.reserve(cfg.nodes);
    l2_.reserve(cfg.nodes);
    for (unsigned n = 0; n < cfg.nodes; ++n) {
        l1_.emplace_back(cfg.l1);
        l2_.emplace_back(cfg.l2);
    }
    offChip_.numCpus = cfg.nodes;
}

const MultiChipSystem::DirEntry *
MultiChipSystem::dirEntry(BlockId blk) const
{
    return dir_.find(blk);
}

MemorySystem::CacheLevelCounters
MultiChipSystem::cacheCounters() const
{
    CacheLevelCounters n;
    for (const Cache &c : l1_)
        n.l1 += c.counters();
    for (const Cache &c : l2_)
        n.l2 += c.counters();
    return n;
}

std::optional<CohState>
MultiChipSystem::probeL1(unsigned node, BlockId blk) const
{
    return l1_[node].probe(blk);
}

std::optional<CohState>
MultiChipSystem::probeL2(unsigned node, BlockId blk) const
{
    return l2_[node].probe(blk);
}

void
MultiChipSystem::invalidateNode(unsigned node, BlockId blk)
{
    // The node's L1 holds a subset of its L2 (fillL2 back-invalidates
    // its victims), so the L1 is scanned only when the L2 held blk.
    Cache &l2 = l2_[node];
    const Cache::Slot s2 = l2.find(blk);
    if (s2 == Cache::kNoSlot)
        return;
    l2.invalidateAt(s2);
    Cache &l1 = l1_[node];
    if (const Cache::Slot s1 = l1.find(blk); s1 != Cache::kNoSlot)
        l1.invalidateAt(s1);
}

void
MultiChipSystem::fillL2(unsigned node, BlockId blk, CohState st)
{
    auto evicted = l2_[node].fill(blk, st);
    if (evicted) {
        // Maintain L1 subset of L2 within a node: back-invalidate.
        Cache &l1 = l1_[node];
        if (const Cache::Slot s = l1.find(evicted->block);
            s != Cache::kNoSlot)
            l1.invalidateAt(s);
        // Update the directory: the node no longer caches the victim.
        if (DirEntry *de = dir_.find(evicted->block)) {
            de->sharers &= ~(1u << node);
            if (de->owner == static_cast<int>(node))
                de->owner = -1; // implicit writeback to memory
            if (de->sharers == 0 && de->owner < 0)
                dir_.erase(evicted->block);
        }
    }
}

void
MultiChipSystem::accessBlock(const Access &acc)
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
MultiChipSystem::accessBlockRun(const Access *accs, std::size_t n)
{
    // One virtual call for the whole run; every element dispatches
    // directly into the protocol handlers.
    for (std::size_t i = 0; i < n; ++i)
        MultiChipSystem::accessBlock(accs[i]);
}

void
MultiChipSystem::handleRead(const Access &acc, BlockId blk)
{
    const unsigned node = acc.cpu;
    Cache &l1 = l1_[node];
    Cache &l2 = l2_[node];

    // L1 hit: nothing further.
    if (const Cache::Slot s = l1.find(blk); s != Cache::kNoSlot) {
        l1.touch(s);
        return;
    }

    // L2 hit: refill L1 from the local L2 (intra-node, untraced in the
    // multi-chip context).
    if (const Cache::Slot s = l2.find(blk); s != Cache::kNoSlot) {
        l2.touch(s);
        l1.fill(blk, l2.stateAt(s));
        return;
    }

    // Off-chip read miss: classify, trace (unless an in-the-loop
    // prefetch covers it), and fetch.
    const MissClass cls = tracker_.classifyRead(blk, node);
    recordOffChipMiss(blk, static_cast<CpuId>(node),
                      static_cast<std::uint8_t>(cls), acc.fn);

    DirEntry &de = dir_[blk];
    if (de.owner >= 0 && de.owner != static_cast<int>(node)) {
        // Remote owner supplies and downgrades to Shared (writeback).
        const unsigned o = static_cast<unsigned>(de.owner);
        for (Cache *c : {&l2_[o], &l1_[o]})
            if (const Cache::Slot s = c->find(blk); s != Cache::kNoSlot)
                c->setStateAt(s, CohState::Shared);
        de.sharers |= 1u << o;
        de.owner = -1;
    }
    de.sharers |= 1u << node;

    // Both local caches missed, and fillL2 back-invalidates only its
    // victim, so blk is still absent from the L1.
    fillL2(node, blk, CohState::Shared);
    l1.fill(blk, CohState::Shared);
}

void
MultiChipSystem::handleWrite(const Access &acc, BlockId blk)
{
    const unsigned node = acc.cpu;
    tracker_.recordWrite(blk, static_cast<int>(node));
    Cache &l1 = l1_[node];
    Cache &l2 = l2_[node];

    const Cache::Slot s2 = l2.find(blk);
    if (s2 != Cache::kNoSlot && l2.stateAt(s2) == CohState::Modified) {
        // Write hit in Modified: no coherence action.
        l2.touch(s2);
    } else {
        // Upgrade or write miss: invalidate all other copies.
        DirEntry &de = dir_[blk];
        for (unsigned n = 0; n < cfg_.nodes; ++n) {
            if (n == node)
                continue;
            if ((de.sharers & (1u << n)) ||
                de.owner == static_cast<int>(n))
                invalidateNode(n, blk);
        }
        de.sharers = 1u << node;
        de.owner = static_cast<int>(node);

        if (s2 == Cache::kNoSlot) {
            // The L2 missed, so by inclusion the L1 cannot hold blk,
            // and fillL2 back-invalidates only its victim: fill the L1
            // without scanning it.
            fillL2(node, blk, CohState::Modified);
            l1.fill(blk, CohState::Modified);
            return;
        }
        l2.setStateAt(s2, CohState::Modified);
        l2.touch(s2);
    }

    if (const Cache::Slot s1 = l1.find(blk); s1 != Cache::kNoSlot) {
        l1.setStateAt(s1, CohState::Modified);
        l1.touch(s1);
    } else {
        l1.fill(blk, CohState::Modified);
    }
}

void
MultiChipSystem::handleIoWrite(const Access &acc, BlockId blk, int writer)
{
    (void)acc;
    tracker_.recordWrite(blk, writer);

    // I/O writes invalidate every cached copy and do not allocate.
    if (const DirEntry *de = dir_.find(blk)) {
        for (unsigned n = 0; n < cfg_.nodes; ++n)
            if ((de->sharers & (1u << n)) ||
                de->owner == static_cast<int>(n))
                invalidateNode(n, blk);
        dir_.erase(blk);
    }
}

} // namespace tstream
