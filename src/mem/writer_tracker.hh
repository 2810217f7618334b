/**
 * @file
 * Exact last-writer / ever-touched tracking for miss classification.
 *
 * The paper's Section 4.1 taxonomy needs, at each read miss, to know
 * whether the block was (a) ever accessed before by anyone (else
 * Compulsory), (b) written since the reader's last read, and by whom:
 * another processor (Coherence), a DMA transfer or non-allocating bulk
 * copy (I/O Coherence), or nobody relevant (Replacement).
 *
 * A WriterTracker is instantiated per *classification viewpoint*: the
 * multi-chip system classifies per node; the single-chip off-chip view
 * treats the whole chip as one reader (so processor-to-processor
 * communication never appears as off-chip coherence, matching the
 * paper); the intra-chip view classifies per core.
 */

#ifndef TSTREAM_MEM_WRITER_TRACKER_HH
#define TSTREAM_MEM_WRITER_TRACKER_HH

#include <cstdint>
#include <vector>

#include "mem/address.hh"
#include "mem/block_map.hh"
#include "trace/record.hh"

namespace tstream
{

/** Sentinel writer ids for I/O-class writes. */
constexpr int kWriterDma = -1;
constexpr int kWriterCopyout = -2;

/** Tracks per-block write history and per-reader read versions. */
class WriterTracker
{
  public:
    /** @param readers Number of reader entities (nodes/cores/chips). */
    explicit WriterTracker(unsigned readers)
        : lastRead_(readers)
    {
    }

    /**
     * Record a write to @p blk by @p writer (a reader-entity id, or
     * kWriterDma / kWriterCopyout).
     */
    void
    recordWrite(BlockId blk, int writer)
    {
        Info &bi = info_[blk];
        bi.version++;
        bi.writer = writer;
    }

    /**
     * Classify a read miss on @p blk by reader @p reader and update
     * history (ever-touched and the reader's last-read version).
     *
     * Following the paper's definitions strictly, Coherence and I/O
     * Coherence require a *prior read at this reader*: a block this
     * reader has never read cannot have been invalidated out of its
     * cache, so its first read here is Compulsory (if globally cold)
     * or Replacement (cold at this cache only).
     */
    MissClass
    classifyRead(BlockId blk, unsigned reader)
    {
        auto [bi, fresh] = info_.tryEmplace(blk);
        auto [last, unread] = lastRead_[reader].tryEmplace(blk);

        MissClass cls;
        if (fresh || !bi->touched) {
            cls = MissClass::Compulsory;
        } else if (unread) {
            cls = MissClass::Replacement; // cold at this reader
        } else if (bi->version > *last) {
            if (bi->writer == kWriterDma || bi->writer == kWriterCopyout)
                cls = MissClass::IoCoherence;
            else if (bi->writer != static_cast<int>(reader))
                cls = MissClass::Coherence;
            else
                cls = MissClass::Replacement;
        } else {
            cls = MissClass::Replacement;
        }

        bi->touched = true;
        *last = bi->version;
        return cls;
    }

    /**
     * True if a read by @p reader would be coherence-caused, i.e. the
     * block was written (by anyone but the reader, or by I/O) since the
     * reader's last read. Does not update history; use for the
     * intra-chip cause split before classifyRead().
     */
    bool
    coherenceCaused(BlockId blk, unsigned reader) const
    {
        const Info *bi = info_.find(blk);
        if (!bi || !bi->touched)
            return false;
        const std::uint32_t *last = lastRead_[reader].find(blk);
        if (!last)
            return false; // never read here: cannot be an invalidation
        return bi->version > *last && bi->writer != static_cast<int>(reader);
    }

    /** Mark a block touched without classifying (e.g. store misses). */
    void
    recordTouch(BlockId blk)
    {
        info_[blk].touched = true;
    }

    /** Number of distinct blocks ever seen. */
    std::size_t distinctBlocks() const { return info_.size(); }

  private:
    struct Info
    {
        std::uint32_t version = 0;
        int writer = 0;
        bool touched = false;
    };

    BlockMap<Info> info_;
    std::vector<BlockMap<std::uint32_t>> lastRead_;
};

} // namespace tstream

#endif // TSTREAM_MEM_WRITER_TRACKER_HH
