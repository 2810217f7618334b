#include "core/stream_analysis.hh"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/sequitur.hh"
#include "mem/block_map.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace tstream
{

double
StreamStats::lengthPercentile(double p) const
{
    if (lengthWeighted.empty())
        return 0.0;
    auto sorted = lengthWeighted;
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t total = 0;
    for (const auto &[len, w] : sorted)
        total += w;
    const double target = total * p / 100.0;
    std::uint64_t run = 0;
    for (const auto &[len, w] : sorted) {
        run += w;
        if (static_cast<double>(run) >= target)
            return static_cast<double>(len);
    }
    return static_cast<double>(sorted.back().first);
}

namespace
{

/** Root-level stream occurrence discovered during the derivation walk. */
struct RootOcc
{
    std::uint32_t rule;
    std::uint32_t start; ///< position in the concatenated input
    std::uint32_t len;
};

/** posToMiss entry of a section's sentinel symbol. */
constexpr std::uint32_t kSentinel = UINT32_MAX;

} // namespace

StreamStats
analyzeStreams(const MissTrace &trace, const StreamAnalysisConfig &cfg)
{
    StreamStats out;
    const std::size_t n = trace.misses.size();
    out.totalMisses = n;
    out.labels.assign(n, RepLabel::NonRepetitive);
    out.strided.assign(n, false);
    if (n == 0)
        return out;

    // The grammar input is one symbol per miss plus one sentinel per
    // section, each possibly a distinct terminal.
    const unsigned nsec = cfg.perCpu ? std::max(1u, trace.numCpus) : 1;
    if (n + nsec >= Sequitur::kTerminalLimit)
        fatal("analyzeStreams: " + std::to_string(n) + " misses plus " +
              std::to_string(nsec) +
              " section sentinels reach the grammar's 2^31 terminal "
              "limit; analyze a shorter trace or window");

    // Phase spans nest under the driver's per-cell "analyze" span, so
    // the trace timeline shows where analysis time actually goes.
    telemetry::Span whole("analysis", "analysis");
    if (whole.active())
        whole.arg("misses", static_cast<std::int64_t>(n));

    // ------------------------------------------------------------------
    // 1. Project the trace per CPU: one flat array holding each CPU's
    //    miss indices in order, each CPU's run followed by one sentinel
    //    slot. Stride detection is per-CPU in every mode; in per-CPU
    //    mode this array is also the grammar input's layout.
    // ------------------------------------------------------------------
    unsigned maxCpu = 0;
    for (const MissRecord &m : trace.misses)
        maxCpu = std::max(maxCpu, static_cast<unsigned>(m.cpu));
    panicIf(cfg.perCpu && maxCpu >= nsec,
            "analyzeStreams: cpu out of range");
    const unsigned ncpu = std::max(nsec, maxCpu + 1);

    // cpuStart[c]: position of CPU c's first miss; its sentinel slot
    // is at cpuStart[c + 1] - 1.
    std::vector<std::uint32_t> cpuStart(ncpu + 1, 0);
    std::vector<std::uint32_t> byCpu;
    {
        telemetry::Span span("analysis.stride_seq", "analysis");
        for (const MissRecord &m : trace.misses)
            ++cpuStart[m.cpu + 1];
        for (unsigned c = 0; c < ncpu; ++c)
            cpuStart[c + 1] += cpuStart[c] + 1;
        byCpu.assign(cpuStart[ncpu], kSentinel);
        std::vector<std::uint32_t> fill(cpuStart.begin(),
                                        cpuStart.end() - 1);
        for (std::uint32_t i = 0; i < n; ++i)
            byCpu[fill[trace.misses[i].cpu]++] = i;

        // Each CPU's tracker table is independent; only the relative
        // observation order within a CPU matters.
        for (unsigned c = 0; c < ncpu; ++c) {
            StrideDetector det(cfg.stride);
            for (std::uint32_t p = cpuStart[c]; p + 1 < cpuStart[c + 1];
                 ++p) {
                const MissRecord &m = trace.misses[byCpu[p]];
                out.strided[byCpu[p]] = det.observe(m.cpu, m.block);
            }
        }
    }

    // The grammar input's sections: the per-CPU runs, or the whole
    // trace in global order. posToMiss maps an input position to its
    // miss index (kSentinel for a sentinel); sectionStart[s] is the
    // position of section s's first symbol.
    std::vector<std::uint32_t> posToMiss;
    std::vector<std::uint32_t> sectionStart;
    if (cfg.perCpu) {
        posToMiss = std::move(byCpu);
        sectionStart = std::move(cpuStart);
    } else {
        posToMiss.resize(n + 1);
        std::iota(posToMiss.begin(), posToMiss.end() - 1, 0u);
        posToMiss[n] = kSentinel;
        sectionStart = {0, static_cast<std::uint32_t>(n + 1)};
    }
    const auto inputLen = static_cast<std::uint32_t>(posToMiss.size());

    // ------------------------------------------------------------------
    // 2. Grammar construction over block ids interned densely in
    //    first-seen order (each sentinel takes the next id, so it is
    //    unique). SEQUITUR only compares symbols for equality, so the
    //    dense ids give the same grammar as any other injective naming.
    // ------------------------------------------------------------------
    Sequitur g;
    {
        telemetry::Span span("analysis.sequitur", "analysis");
        if (span.active())
            span.arg("symbols", static_cast<std::int64_t>(inputLen));
        BlockMap<std::uint32_t> intern;
        std::uint32_t nextId = 0;
        for (const std::uint32_t mi : posToMiss) {
            if (mi == kSentinel) {
                g.append(nextId++);
                continue;
            }
            auto [id, fresh] = intern.tryEmplace(trace.misses[mi].block);
            if (fresh)
                *id = nextId++;
            g.append(*id);
        }
    }
    const std::vector<std::uint64_t> ruleLen = g.ruleLengths();
    out.grammarRules = g.ruleCount();
    telemetry::observe("analysis.grammar_rules",
                       static_cast<double>(out.grammarRules));

    // ------------------------------------------------------------------
    // 3. Derivation walk, in place over the grammar: enumerate
    //    root-level occurrences and each rule's first-expansion
    //    position (for New/Recurring). A rule is descended into only
    //    on its first expansion; every rule nested in it expands there
    //    too, so a later occurrence just advances the position.
    // ------------------------------------------------------------------
    constexpr std::uint32_t kUnexpanded = UINT32_MAX;
    std::vector<std::uint32_t> firstExpansion(ruleLen.size(), kUnexpanded);
    std::vector<RootOcc> rootOccs;
    {
        telemetry::Span span("analysis.derivation_walk", "analysis");
        std::vector<Sequitur::SymbolRef> stack{
            g.bodyFirst(Sequitur::kRootRule)};
        std::uint32_t pos = 0;
        while (!stack.empty()) {
            const Sequitur::SymbolRef s = stack.back();
            if (g.atBodyEnd(s)) {
                stack.pop_back();
                continue;
            }
            stack.back() = g.bodyNext(s);
            const Sequitur::GrammarSymbol sym = g.symbolAt(s);
            if (!sym.isRule) {
                ++pos;
                continue;
            }
            const auto r = static_cast<std::uint32_t>(sym.value);
            const auto len = static_cast<std::uint32_t>(ruleLen[r]);
            if (stack.size() == 1)
                rootOccs.push_back({r, pos, len});
            if (firstExpansion[r] == kUnexpanded) {
                firstExpansion[r] = pos;
                stack.push_back(g.bodyFirst(r));
            } else {
                pos += len;
            }
        }
        panicIf(pos != inputLen,
                "analyzeStreams: derivation length mismatch");
    }

    // ------------------------------------------------------------------
    // 4. Label misses: inside a root-level occurrence -> New if this is
    //    the rule's first expansion, else Recurring.
    // ------------------------------------------------------------------
    for (const RootOcc &occ : rootOccs) {
        const bool isNew = occ.start == firstExpansion[occ.rule];
        const RepLabel lbl =
            isNew ? RepLabel::NewStream : RepLabel::RecurringStream;
        for (std::uint32_t p = occ.start; p < occ.start + occ.len; ++p) {
            const std::uint32_t mi = posToMiss[p];
            panicIf(mi == kSentinel,
                    "analyzeStreams: rule covers a sentinel");
            out.labels[mi] = lbl;
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        switch (out.labels[i]) {
          case RepLabel::NonRepetitive: ++out.nonRepetitive; break;
          case RepLabel::NewStream: ++out.newStream; break;
          case RepLabel::RecurringStream: ++out.recurringStream; break;
        }
        const bool rep = out.labels[i] != RepLabel::NonRepetitive;
        const bool str = out.strided[i];
        if (rep && str)
            ++out.stridedRepetitive;
        else if (rep)
            ++out.nonStridedRepetitive;
        else if (str)
            ++out.stridedNonRepetitive;
        else
            ++out.nonStridedNonRepetitive;
    }

    // ------------------------------------------------------------------
    // 5. Stream-length distribution, weighted by contribution: each
    //    root occurrence of a rule of length L contributes L misses.
    // ------------------------------------------------------------------
    {
        telemetry::Span span("analysis.length_dist", "analysis");
        std::vector<std::uint64_t> occCount(ruleLen.size(), 0);
        for (const RootOcc &occ : rootOccs)
            occCount[occ.rule]++;
        for (std::uint32_t r = 0; r < occCount.size(); ++r)
            if (occCount[r] != 0)
                out.lengthWeighted.emplace_back(ruleLen[r],
                                                occCount[r] * ruleLen[r]);
    }

    // ------------------------------------------------------------------
    // 6. Reuse distance: consecutive root occurrences of the same rule,
    //    measured in intervening misses on the first occurrence's CPU.
    // ------------------------------------------------------------------
    {
        telemetry::Span span("analysis.reuse_dist", "analysis");
        const auto nsections =
            static_cast<unsigned>(sectionStart.size() - 1);
        auto sectionOfPos = [&](std::uint32_t p) {
            return static_cast<unsigned>(
                std::upper_bound(sectionStart.begin() + 1,
                                 sectionStart.begin() + nsections, p) -
                (sectionStart.begin() + 1));
        };
        auto seqAt = [&](std::uint32_t p) {
            return trace.misses[posToMiss[p]].seq;
        };

        // Process occurrences in global-time order of their first miss.
        std::sort(rootOccs.begin(), rootOccs.end(),
                  [&](const RootOcc &a, const RootOcc &b) {
                      return seqAt(a.start) < seqAt(b.start);
                  });
        std::vector<RootOcc> lastOcc(ruleLen.size(), RootOcc{0, 0, 0});
        for (const RootOcc &occ : rootOccs) {
            const RootOcc &prev = lastOcc[occ.rule];
            if (prev.len != 0) {
                const unsigned secA = sectionOfPos(prev.start);
                // Ordinal of the previous occurrence's last miss on A.
                const std::uint64_t endOrdinal =
                    prev.start + prev.len - 1 - sectionStart[secA];
                // Misses A has issued before this occurrence begins: a
                // binary search of A's section, which is in seq order.
                const std::uint64_t startSeq = seqAt(occ.start);
                const auto first = posToMiss.begin() + sectionStart[secA];
                const auto last =
                    posToMiss.begin() + sectionStart[secA + 1] - 1;
                const std::uint64_t seenOnA = static_cast<std::uint64_t>(
                    std::partition_point(first, last,
                                         [&](std::uint32_t mi) {
                                             return trace.misses[mi].seq <
                                                    startSeq;
                                         }) -
                    first);
                const std::uint64_t dist =
                    seenOnA > endOrdinal + 1 ? seenOnA - endOrdinal - 1
                                             : 0;
                out.reuseWeighted.emplace_back(dist, occ.len);
            }
            lastOcc[occ.rule] = occ;
        }
    }

    return out;
}

} // namespace tstream
