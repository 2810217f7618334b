/**
 * @file
 * Multi-chip DSM model: N nodes, each with a private L1 and a large
 * private L2, kept coherent with a directory-based MSI protocol.
 *
 * Mirrors the paper's 16-node distributed-shared-memory system (64 KB
 * 2-way L1, 8 MB 16-way L2, MSI). The model is functional: the traced
 * events are off-chip read misses (L2 read misses), classified with the
 * 4C's+I/O taxonomy per node.
 */

#ifndef TSTREAM_MEM_MULTICHIP_HH
#define TSTREAM_MEM_MULTICHIP_HH

#include <cstdint>
#include <vector>

#include "mem/block_map.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/writer_tracker.hh"

namespace tstream
{

/** Configuration of the multi-chip DSM. */
struct MultiChipConfig
{
    unsigned nodes = 16;
    CacheConfig l1 = cachecfg::kL1;
    CacheConfig l2 = cachecfg::kL2;
};

/** Directory-based MSI multi-chip multiprocessor. */
class MultiChipSystem : public MemorySystem
{
  public:
    explicit MultiChipSystem(const MultiChipConfig &cfg = {});

    void accessBlock(const Access &acc) override;
    void accessBlockRun(const Access *accs, std::size_t n) override;

    CacheLevelCounters cacheCounters() const override;

    unsigned numCpus() const override { return cfg_.nodes; }

    /** Directory entry state, exposed for tests. */
    struct DirEntry
    {
        std::uint32_t sharers = 0; ///< bitmask over nodes
        int owner = -1;            ///< node holding Modified, or -1
    };

    /** Probe the directory (tests / debugging). */
    const DirEntry *dirEntry(BlockId blk) const;

    /** Probe a node's caches (tests / debugging). */
    std::optional<CohState> probeL1(unsigned node, BlockId blk) const;
    std::optional<CohState> probeL2(unsigned node, BlockId blk) const;

  private:
    void handleRead(const Access &acc, BlockId blk);
    void handleWrite(const Access &acc, BlockId blk);
    void handleIoWrite(const Access &acc, BlockId blk, int writer);

    /** Remove @p node from sharers/owner and invalidate its caches. */
    void invalidateNode(unsigned node, BlockId blk);

    /** Handle an L2 insertion's possible eviction at @p node. */
    void fillL2(unsigned node, BlockId blk, CohState st);

    MultiChipConfig cfg_;
    std::vector<Cache> l1_;
    std::vector<Cache> l2_;
    BlockMap<DirEntry> dir_;
    WriterTracker tracker_;
};

} // namespace tstream

#endif // TSTREAM_MEM_MULTICHIP_HH
