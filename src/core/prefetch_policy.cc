#include "core/prefetch_policy.hh"

#include <algorithm>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace tstream
{

// ---- StreamHistory ----------------------------------------------------------

void
StreamHistory::reset(unsigned numCpus, std::uint32_t entries)
{
    panicIf(entries == 0, "StreamHistory: empty ring");
    entries_ = entries;
    // Rings start empty and grow by append (see record()); a reused
    // history keeps their capacity.
    rings_.resize(numCpus);
    for (Ring &r : rings_) {
        r.ring.clear();
        r.head = 0;
        r.tail = 0;
    }
    index_.clear();
}

StreamHistory::Hit
StreamHistory::record(unsigned cpu, BlockId blk)
{
    // Stream lookup: where did this block last appear? The entry is
    // claimed here and overwritten below, so one probe serves both.
    const auto [last, fresh] = index_.tryEmplace(blk);
    Hit hit;
    if (!fresh) {
        hit.home = last->cpu;
        const Ring &h = rings_[hit.home];
        hit.age = h.head - last->pos;
        // The slot after the occurrence, counted back from the write
        // slot (only meaningful while the ring still holds it).
        if (hit.age <= entries_) {
            const std::uint32_t back =
                static_cast<std::uint32_t>(hit.age - 1);
            hit.next = h.tail >= back ? h.tail - back
                                      : h.tail + entries_ - back;
        }
    }

    // Record the miss after locating it, as in the pre-API model; the
    // append overwrites the slot age == entries_ held, which a replay
    // never reads.
    Ring &r = rings_[cpu];
    if (r.ring.size() < entries_)
        r.ring.push_back(blk); // still filling: tail == ring.size()
    else
        r.ring[r.tail] = blk;
    if (++r.tail == entries_)
        r.tail = 0;
    last->cpu = cpu;
    last->pos = r.head++;
    return hit;
}

// ---- StrideRun --------------------------------------------------------------

void
StrideRun::reset(unsigned numCpus, const StrideConfig &cfg)
{
    detector_ = StrideDetector(cfg);
    last_.assign(numCpus, -1);
}

std::int64_t
StrideRun::observe(const MissRecord &m, unsigned cpu)
{
    const bool strided = detector_.observe(m.cpu, m.block);
    const std::int64_t prev = last_[cpu];
    last_[cpu] = static_cast<std::int64_t>(m.block);
    return strided && prev >= 0
               ? static_cast<std::int64_t>(m.block) - prev
               : 0;
}

// ---- FixedDepthPolicy -------------------------------------------------------

FixedDepthPolicy::FixedDepthPolicy(const TsPrefetcherConfig &cfg)
    : cfg_(cfg)
{
    panicIf(cfg.historyEntries == 0, "FixedDepthPolicy: empty history");
}

void
FixedDepthPolicy::reset(unsigned numCpus)
{
    ncpu_ = std::max(1u, numCpus);
    history_.reset(ncpu_, cfg_.historyEntries);
    pending_.clear();
    lookups_ = 0;
}

std::uint32_t
FixedDepthPolicy::depthFor(std::uint32_t home) const
{
    (void)home;
    return cfg_.replayDepth;
}

void
FixedDepthPolicy::observeMiss(const MissRecord &m)
{
    const unsigned cpu = m.cpu < ncpu_ ? m.cpu : 0;
    const StreamHistory::Hit hit = history_.record(cpu, m.block);
    if (!StreamHistory::replayable(hit, cpu, cfg_.historyEntries,
                                   cfg_.crossCpu))
        return;
    lookups_++;
    // Replay the addresses that followed the occurrence, up to the
    // depth. The tag is the stream's home CPU, so usefulness feedback
    // reaches the right per-stream accuracy window in the adaptive
    // subclass.
    const StreamHistory::Replay r =
        history_.replay(hit, depthFor(hit.home));
    for (std::uint32_t i = 0; i < r.firstLen; ++i)
        pending_.push_back(PrefetchCandidate{r.first[i], hit.home});
    for (std::uint32_t i = 0; i < r.wrappedLen; ++i)
        pending_.push_back(PrefetchCandidate{r.wrapped[i], hit.home});
}

void
FixedDepthPolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
}

std::uint64_t
FixedDepthPolicy::storageBytes() const
{
    // The CMOB budget axis: one block id per history entry per CPU.
    return static_cast<std::uint64_t>(std::max(1u, ncpu_)) *
           cfg_.historyEntries * sizeof(BlockId);
}

// ---- AdaptiveDepthPolicy ----------------------------------------------------

AdaptiveDepthPolicy::AdaptiveDepthPolicy(
    const TsPrefetcherConfig &cfg, const AdaptiveDepthConfig &adaptive)
    : FixedDepthPolicy(cfg), acfg_(adaptive)
{
    panicIf(acfg_.minDepth == 0 || acfg_.minDepth > acfg_.maxDepth,
            "AdaptiveDepthPolicy: bad depth bounds");
    panicIf(acfg_.window == 0, "AdaptiveDepthPolicy: empty window");
}

void
AdaptiveDepthPolicy::reset(unsigned numCpus)
{
    FixedDepthPolicy::reset(numCpus);
    const std::uint32_t start = std::clamp(
        cfg_.replayDepth, acfg_.minDepth, acfg_.maxDepth);
    depth_.assign(ncpu_, start);
    win_.assign(ncpu_, WindowCounters{});
}

std::uint32_t
AdaptiveDepthPolicy::depthFor(std::uint32_t home) const
{
    return depth_[home];
}

void
AdaptiveDepthPolicy::noteUseful(std::uint32_t tag)
{
    win_[tag].useful++;
}

void
AdaptiveDepthPolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    // Charge this drain's candidates to their streams' windows; a full
    // window decides whether the stream's replays are paying off.
    for (const PrefetchCandidate &c : pending_) {
        WindowCounters &w = win_[c.tag];
        if (++w.issued >= acfg_.window) {
            const double acc = static_cast<double>(w.useful) /
                               static_cast<double>(w.issued);
            std::uint32_t &d = depth_[c.tag];
            if (acc >= acfg_.raiseAt)
                d = std::min(d * 2, acfg_.maxDepth);
            else if (acc <= acfg_.throttleAt)
                d = std::max(d / 2, acfg_.minDepth);
            w = WindowCounters{};
        }
    }
    FixedDepthPolicy::drainPrefetches(out);
}

// ---- StridePolicy -----------------------------------------------------------

StridePolicy::StridePolicy(const StridePolicyConfig &cfg)
    : cfg_(cfg)
{
    panicIf(cfg.degree == 0, "StridePolicy: zero degree");
}

void
StridePolicy::reset(unsigned numCpus)
{
    ncpu_ = std::max(1u, numCpus);
    run_.reset(ncpu_, cfg_.stride);
    pending_.clear();
}

void
StridePolicy::observeMiss(const MissRecord &m)
{
    // On a confirmed run, fetch ahead.
    const std::int64_t delta =
        run_.observe(m, m.cpu < ncpu_ ? m.cpu : 0);
    if (delta != 0)
        for (unsigned k = 1; k <= cfg_.degree; ++k)
            pending_.push_back(
                PrefetchCandidate{StrideRun::target(m.block, delta, k), 0});
}

void
StridePolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
}

std::uint64_t
StridePolicy::storageBytes() const
{
    // (last block, stride, confidence) per tracker.
    return static_cast<std::uint64_t>(std::max(1u, ncpu_)) *
           cfg_.stride.trackers * 24;
}

// ---- HybridPolicy -----------------------------------------------------------

HybridPolicy::HybridPolicy(
    std::vector<std::unique_ptr<PrefetchPolicy>> parts)
    : parts_(std::move(parts))
{
    panicIf(parts_.empty(), "HybridPolicy: no sub-policies");
    panicIf(parts_.size() > 255, "HybridPolicy: too many sub-policies");
    for (const auto &p : parts_)
        panicIf(!p, "HybridPolicy: null sub-policy");
}

std::unique_ptr<HybridPolicy>
HybridPolicy::temporalPlusStride(const TsPrefetcherConfig &cfg,
                                 unsigned strideDegree)
{
    std::vector<std::unique_ptr<PrefetchPolicy>> parts;
    parts.push_back(std::make_unique<FixedDepthPolicy>(cfg));
    StridePolicyConfig sc;
    sc.degree = strideDegree;
    parts.push_back(std::make_unique<StridePolicy>(sc));
    return std::make_unique<HybridPolicy>(std::move(parts));
}

void
HybridPolicy::reset(unsigned numCpus)
{
    for (auto &p : parts_)
        p->reset(numCpus);
}

void
HybridPolicy::observeMiss(const MissRecord &m)
{
    for (auto &p : parts_)
        p->observeMiss(m);
}

void
HybridPolicy::drainPrefetches(std::vector<PrefetchCandidate> &out)
{
    for (std::size_t i = 0; i < parts_.size(); ++i) {
        // Drain straight into @p out, then namespace the new tags.
        const std::size_t first = out.size();
        parts_[i]->drainPrefetches(out);
        for (std::size_t j = first; j < out.size(); ++j)
            out[j].tag = (static_cast<std::uint32_t>(i) << kTagShift) |
                         (out[j].tag & ((1u << kTagShift) - 1));
    }
}

void
HybridPolicy::noteUseful(std::uint32_t tag)
{
    const std::size_t idx = tag >> kTagShift;
    parts_[idx]->noteUseful(tag & ((1u << kTagShift) - 1));
}

std::uint64_t
HybridPolicy::storageBytes() const
{
    std::uint64_t total = 0;
    for (const auto &p : parts_)
        total += p->storageBytes();
    return total;
}

std::uint64_t
HybridPolicy::streamLookups() const
{
    std::uint64_t total = 0;
    for (const auto &p : parts_)
        total += p->streamLookups();
    return total;
}

// ---- registry ---------------------------------------------------------------

const std::vector<std::string> &
prefetchPolicyNames()
{
    static const std::vector<std::string> names = {
        "fixed", "adaptive", "stride", "hybrid"};
    return names;
}

std::unique_ptr<PrefetchPolicy>
makePrefetchPolicy(std::string_view name,
                   const PrefetchPolicyParams &params)
{
    if (name == "fixed")
        return std::make_unique<FixedDepthPolicy>(params.ts);
    if (name == "adaptive")
        return std::make_unique<AdaptiveDepthPolicy>(params.ts,
                                                     params.adaptive);
    if (name == "stride") {
        StridePolicyConfig sc;
        sc.degree = params.strideDegree;
        return std::make_unique<StridePolicy>(sc);
    }
    if (name == "hybrid")
        return HybridPolicy::temporalPlusStride(params.ts,
                                                params.strideDegree);
    return nullptr;
}

namespace
{

/**
 * The feedback-free shape of a registry configuration: temporal replay
 * (when historyEntries != 0), then stride run-ahead (when strideDegree
 * != 0), into per-CPU buffers of bufferBlocks.
 */
struct ReplayPlan
{
    std::uint32_t historyEntries = 0;
    std::uint32_t replayDepth = 0;
    bool crossCpu = true;
    unsigned strideDegree = 0;
    std::uint32_t bufferBlocks = 0;
};

/**
 * What makePrefetchPolicy(c.name, c.params) replays, for the one-pass
 * evaluation; false for a policy that reads usefulness feedback
 * (adaptive) or an unknown name.
 */
bool
replayPlanOf(const PolicyConfig &c, ReplayPlan &plan)
{
    const bool temporal = c.name == "fixed" || c.name == "hybrid";
    const bool stride = c.name == "stride" || c.name == "hybrid";
    if (!temporal && !stride)
        return false;
    plan.bufferBlocks = c.params.ts.bufferBlocks;
    if (temporal) {
        plan.historyEntries = c.params.ts.historyEntries;
        plan.replayDepth = c.params.ts.replayDepth;
        plan.crossCpu = c.params.ts.crossCpu;
    }
    if (stride)
        plan.strideDegree = c.params.strideDegree;
    return true;
}

} // namespace

// ---- harness ----------------------------------------------------------------

namespace
{

/**
 * Per-CPU FIFO prefetch buffer: the live entries blocks[head, tail)
 * and, when the harness routes usefulness feedback, their tags. The
 * arrays are sized once, to twice the buffer capacity: displacement
 * advances head, and the dead front is compacted away when an insert
 * would run past the end, so no miss allocates.
 */
class PrefetchFifo
{
  public:
    PrefetchFifo(std::uint32_t capacity, bool tagged)
        : cap_(capacity), blocks_(2 * std::size_t{capacity}),
          tags_(tagged ? 2 * std::size_t{capacity} : 0)
    {
    }

    /**
     * Demand check: remove every buffered copy of @p blk, closing the
     * gaps stably, and hand each copy's tag to @p useful in FIFO order
     * (tagged buffers only).
     * @return the copies removed; 0 when @p blk was not buffered.
     */
    template <typename Useful>
    std::uint32_t
    consume(BlockId blk, Useful &&useful)
    {
        std::uint32_t i = head_;
        while (i < tail_ && blocks_[i] != blk)
            ++i;
        if (i == tail_)
            return 0;
        const bool tagged = !tags_.empty();
        std::uint32_t kept = i;
        for (; i < tail_; ++i) {
            if (blocks_[i] == blk) {
                if (tagged)
                    useful(tags_[i]);
            } else {
                blocks_[kept] = blocks_[i];
                if (tagged)
                    tags_[kept] = tags_[i];
                ++kept;
            }
        }
        const std::uint32_t copies = tail_ - kept;
        tail_ = kept;
        return copies;
    }

    /**
     * Append @p n blocks in order, displacing the oldest entries
     * beyond capacity — a burst longer than the buffer displaces its
     * own first blocks at once. Untagged buffers only.
     * @return the entries displaced.
     */
    std::uint32_t
    push(const BlockId *blocks, std::uint32_t n)
    {
        std::uint32_t skip = 0;
        const std::uint32_t displaced = makeRoom(n, skip);
        for (std::uint32_t k = skip; k < n; ++k)
            blocks_[tail_++] = blocks[k];
        return displaced;
    }

    /** push() for a tagged buffer: each block carries its tag. */
    std::uint32_t
    push(const PrefetchCandidate *cands, std::uint32_t n)
    {
        std::uint32_t skip = 0;
        const std::uint32_t displaced = makeRoom(n, skip);
        for (std::uint32_t k = skip; k < n; ++k, ++tail_) {
            blocks_[tail_] = cands[k].block;
            tags_[tail_] = cands[k].tag;
        }
        return displaced;
    }

  private:
    /**
     * Displace what an @p n-block burst pushes out and make room for
     * its last min(n, capacity) blocks at tail_; @p skip is set to the
     * number of the burst's own first blocks displaced at once.
     * @return the entries displaced, those included.
     */
    std::uint32_t
    makeRoom(std::uint32_t n, std::uint32_t &skip)
    {
        std::uint32_t displaced = 0;
        if (n >= cap_) {
            skip = n - cap_;
            displaced = tail_ - head_ + skip;
            head_ = tail_ = 0;
        } else if (tail_ - head_ + n > cap_) {
            displaced = tail_ - head_ + n - cap_;
            head_ += displaced;
        }
        // At most cap_ - (n - skip) entries are live now: slide them
        // down when the burst would run past the arrays.
        if (tail_ + (n - skip) > blocks_.size()) {
            std::copy(blocks_.begin() + head_, blocks_.begin() + tail_,
                      blocks_.begin());
            if (!tags_.empty())
                std::copy(tags_.begin() + head_, tags_.begin() + tail_,
                          tags_.begin());
            tail_ -= head_;
            head_ = 0;
        }
        return displaced;
    }

    std::uint32_t cap_;
    std::vector<BlockId> blocks_;
    std::vector<std::uint32_t> tags_;
    std::uint32_t head_ = 0;
    std::uint32_t tail_ = 0;
};

/** Score a demand check that removed @p copies buffered prefetches. */
void
creditCopies(TsPrefetcherStats &stats, std::uint32_t copies)
{
    if (copies != 0) {
        stats.covered++;
        stats.useful += copies;
    }
}

/**
 * The shared per-miss step for any policy: demand check with usefulness
 * feedback, train, drain, insert with FIFO displacement. Bit-identical
 * to the pre-API TsPrefetcher loops — candidates are inserted after the
 * policy observed the miss, but insertion only touches the buffer, so
 * the order change is unobservable.
 */
class Harness
{
  public:
    Harness(PrefetchPolicy &policy, std::uint32_t bufferBlocks,
            unsigned numCpus)
        : policy_(policy), ncpu_(std::max(1u, numCpus)),
          buffers_(ncpu_, PrefetchFifo(bufferBlocks, true))
    {
        panicIf(bufferBlocks == 0, "prefetch harness: empty buffer");
        policy_.reset(ncpu_);
    }

    /** Process one demand miss; true when the buffer covered it. */
    bool
    step(const MissRecord &m)
    {
        const unsigned cpu = m.cpu < ncpu_ ? m.cpu : 0;
        PrefetchFifo &buf = buffers_[cpu];
        stats_.misses++;

        const std::uint32_t copies = buf.consume(
            m.block, [this](std::uint32_t tag) { policy_.noteUseful(tag); });
        creditCopies(stats_, copies);

        // Train on every miss (covered or not), then issue.
        policy_.observeMiss(m);
        scratch_.clear();
        policy_.drainPrefetches(scratch_);
        const auto n = static_cast<std::uint32_t>(scratch_.size());
        stats_.issued += n;
        stats_.evictions += buf.push(scratch_.data(), n);
        return copies != 0;
    }

    /** Aggregate stats with the policy's lookup count folded in. */
    TsPrefetcherStats
    stats() const
    {
        TsPrefetcherStats s = stats_;
        s.streamLookups = policy_.streamLookups();
        return s;
    }

  private:
    PrefetchPolicy &policy_;
    unsigned ncpu_;
    std::vector<PrefetchFifo> buffers_;
    std::vector<PrefetchCandidate> scratch_;
    TsPrefetcherStats stats_;
};

/** Bump the prefetch.* run counters (docs/OBSERVABILITY.md). */
void
countPrefetchStats(const TsPrefetcherStats &s)
{
    telemetry::count("prefetch.issued", s.issued);
    telemetry::count("prefetch.useful", s.useful);
    telemetry::count("prefetch.covered", s.covered);
    telemetry::count("prefetch.evictions", s.evictions);
}

/** evaluatePolicy() without its span and counters. */
TsPrefetcherStats
runHarness(const MissTrace &trace, PrefetchPolicy &policy,
           std::uint32_t bufferBlocks)
{
    Harness harness(policy, bufferBlocks, trace.numCpus);
    for (const MissRecord &m : trace.misses)
        harness.step(m);
    return harness.stats();
}

/** One feedback-free configuration of the one-pass evaluation: its
 *  replay plan, its own per-CPU prefetch buffers and its score. */
struct Lane
{
    ReplayPlan plan;
    PolicyScore *score;
    std::vector<PrefetchFifo> buffers;
};

/**
 * The one-pass evaluation: record every miss once in the shared history
 * and stride run, then give each lane the same demand check, replay and
 * stride steps the Harness would run through its policy.
 */
void
scoreInOnePass(const MissTrace &trace, unsigned ncpu,
               std::vector<Lane> &lanes)
{
    std::uint32_t ringEntries = 0;
    unsigned aheadMax = 0;
    for (const Lane &l : lanes) {
        ringEntries = std::max(ringEntries, l.plan.historyEntries);
        aheadMax = std::max(aheadMax, l.plan.strideDegree);
    }
    StreamHistory history;
    if (ringEntries != 0)
        history.reset(ncpu, ringEntries);
    StrideRun stride;
    if (aheadMax != 0)
        stride.reset(ncpu, StrideConfig{});
    std::vector<BlockId> ahead(aheadMax);

    for (const MissRecord &m : trace.misses) {
        const unsigned cpu = m.cpu < ncpu ? m.cpu : 0;
        const StreamHistory::Hit hit = ringEntries != 0
                                           ? history.record(cpu, m.block)
                                           : StreamHistory::Hit{};
        const std::int64_t delta =
            aheadMax != 0 ? stride.observe(m, cpu) : 0;
        for (unsigned k = 0; delta != 0 && k < aheadMax; ++k)
            ahead[k] = StrideRun::target(m.block, delta, k + 1);

        for (Lane &l : lanes) {
            PrefetchFifo &buf = l.buffers[cpu];
            TsPrefetcherStats &st = l.score->stats;
            creditCopies(st, buf.consume(m.block, [](std::uint32_t) {}));
            if (StreamHistory::replayable(hit, cpu, l.plan.historyEntries,
                                          l.plan.crossCpu)) {
                st.streamLookups++;
                const StreamHistory::Replay r =
                    history.replay(hit, l.plan.replayDepth);
                st.issued += r.firstLen + r.wrappedLen;
                st.evictions += buf.push(r.first, r.firstLen);
                st.evictions += buf.push(r.wrapped, r.wrappedLen);
            }
            if (delta != 0 && l.plan.strideDegree != 0) {
                st.issued += l.plan.strideDegree;
                st.evictions += buf.push(ahead.data(), l.plan.strideDegree);
            }
        }
    }
    for (Lane &l : lanes)
        l.score->stats.misses = trace.misses.size();
}

} // namespace

TsPrefetcherStats
evaluatePolicy(const MissTrace &trace, PrefetchPolicy &policy,
               std::uint32_t bufferBlocks)
{
    telemetry::Span span("prefetch.evaluate", "prefetch");
    if (span.active())
        span.arg("policy", policy.name());

    const TsPrefetcherStats stats = runHarness(trace, policy, bufferBlocks);
    if (span.active()) {
        span.arg("misses",
                 static_cast<std::int64_t>(stats.misses));
        span.arg("coverage_pct", 100.0 * stats.coverage());
    }
    countPrefetchStats(stats);
    return stats;
}

std::vector<PolicyScore>
evaluatePolicies(const MissTrace &trace,
                 const std::vector<PolicyConfig> &configs)
{
    telemetry::Span span("prefetch.evaluate", "prefetch");
    if (span.active()) {
        span.arg("configs", static_cast<std::int64_t>(configs.size()));
        span.arg("misses",
                 static_cast<std::int64_t>(trace.misses.size()));
    }

    const unsigned ncpu = std::max(1u, trace.numCpus);
    std::vector<PolicyScore> scores(configs.size());
    std::vector<Lane> lanes;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const PolicyConfig &c = configs[i];
        const auto policy = makePrefetchPolicy(c.name, c.params);
        panicIf(!policy, "evaluatePolicies: unknown policy '" + c.name +
                             "'");
        ReplayPlan plan;
        if (replayPlanOf(c, plan)) {
            panicIf(plan.bufferBlocks == 0,
                    "evaluatePolicies: empty buffer");
            lanes.push_back(Lane{
                plan, &scores[i],
                std::vector<PrefetchFifo>(
                    ncpu, PrefetchFifo(plan.bufferBlocks, false))});
            policy->reset(ncpu);
        } else {
            scores[i].stats =
                runHarness(trace, *policy, c.params.ts.bufferBlocks);
        }
        scores[i].storageBytes = policy->storageBytes();
    }
    scoreInOnePass(trace, ncpu, lanes);

    for (const PolicyScore &s : scores)
        countPrefetchStats(s.stats);
    return scores;
}

// ---- in-the-loop engine -----------------------------------------------------

struct PrefetchLoopEngine::Impl
{
    explicit Impl(PrefetchPolicy &policy, std::uint32_t bufferBlocks,
                  unsigned numCpus)
        : harness(policy, bufferBlocks, numCpus)
    {
    }

    Harness harness;
};

PrefetchLoopEngine::PrefetchLoopEngine(
    std::unique_ptr<PrefetchPolicy> policy, std::uint32_t bufferBlocks)
    : policy_(std::move(policy)), bufferBlocks_(bufferBlocks)
{
    panicIf(!policy_, "PrefetchLoopEngine: null policy");
}

PrefetchLoopEngine::~PrefetchLoopEngine()
{
    if (impl_)
        countPrefetchStats(stats());
}

void
PrefetchLoopEngine::attach(MemorySystem &sys)
{
    panicIf(impl_ != nullptr, "PrefetchLoopEngine: already attached");
    impl_ = std::make_unique<Impl>(*policy_, bufferBlocks_,
                                   sys.numCpus());
    sys.setPrefetchHook(this);
}

bool
PrefetchLoopEngine::coverOffChipMiss(const MissRecord &m, bool traced)
{
    const bool covered = impl_->harness.step(m);
    if (covered && traced)
        coveredTraced_++;
    return covered;
}

TsPrefetcherStats
PrefetchLoopEngine::stats() const
{
    return impl_ ? impl_->harness.stats() : TsPrefetcherStats{};
}

} // namespace tstream
