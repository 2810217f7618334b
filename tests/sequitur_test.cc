/**
 * @file
 * Unit and property tests for the SEQUITUR grammar builder: exact
 * reconstruction, invariant maintenance, and known-grammar cases.
 *
 * The differential suite embeds a frozen reference — the 24 B-symbol
 * builder with 64-bit terminals and two-word digram keys that the
 * packed layout replaced — and demands the same rule ids, bodies and
 * lengths on seeded inputs and on a per-CPU projected quick trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/sequitur.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

std::vector<std::uint64_t>
buildAndExpand(const std::vector<std::uint64_t> &in)
{
    Sequitur g;
    g.appendAll(in);
    return g.expandRule(Sequitur::kRootRule);
}

TEST(Sequitur, EmptyGrammar)
{
    Sequitur g;
    EXPECT_EQ(g.inputLength(), 0u);
    EXPECT_EQ(g.ruleCount(), 1u); // just the root
    EXPECT_TRUE(g.expandRule(Sequitur::kRootRule).empty());
    g.checkInvariants();
}

TEST(Sequitur, SingleSymbol)
{
    Sequitur g;
    g.append(42);
    EXPECT_EQ(g.expandRule(Sequitur::kRootRule),
              (std::vector<std::uint64_t>{42}));
    g.checkInvariants();
}

TEST(Sequitur, NoRepetitionCreatesNoRules)
{
    Sequitur g;
    g.appendAll({1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_EQ(g.ruleCount(), 1u);
    g.checkInvariants();
}

TEST(Sequitur, ClassicAbcdbc)
{
    // From the SEQUITUR paper: "abcdbc" yields root a A d A with
    // A -> b c.
    Sequitur g;
    g.appendAll({'a', 'b', 'c', 'd', 'b', 'c'});
    EXPECT_EQ(g.ruleCount(), 2u);
    EXPECT_EQ(buildAndExpand({'a', 'b', 'c', 'd', 'b', 'c'}),
              (std::vector<std::uint64_t>{'a', 'b', 'c', 'd', 'b', 'c'}));
    g.checkInvariants();
}

TEST(Sequitur, HierarchyFormation)
{
    // "abcdbcabcdbc": the whole half repeats; expect nested rules and a
    // root of two identical non-terminals.
    Sequitur g;
    const std::vector<std::uint64_t> in{'a', 'b', 'c', 'd', 'b', 'c',
                                        'a', 'b', 'c', 'd', 'b', 'c'};
    g.appendAll(in);
    EXPECT_EQ(g.expandRule(Sequitur::kRootRule), in);
    const auto root = g.ruleBody(Sequitur::kRootRule);
    ASSERT_EQ(root.size(), 2u);
    EXPECT_TRUE(root[0].isRule);
    EXPECT_TRUE(root[1].isRule);
    EXPECT_EQ(root[0].value, root[1].value);
    g.checkInvariants();
}

TEST(Sequitur, RunsOfIdenticalSymbols)
{
    for (std::size_t n = 1; n <= 40; ++n) {
        std::vector<std::uint64_t> in(n, 7);
        Sequitur g;
        g.appendAll(in);
        EXPECT_EQ(g.expandRule(Sequitur::kRootRule), in) << "n=" << n;
        g.checkInvariants(true);
    }
}

TEST(Sequitur, RuleUtilityInlinesSingleUseRules)
{
    // "aabaaab" exercises rule creation then inlining (from the JAIR
    // paper's discussion of utility).
    const std::vector<std::uint64_t> in{'a', 'a', 'b', 'a', 'a', 'a',
                                        'b'};
    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(g.expandRule(Sequitur::kRootRule), in);
    g.checkInvariants(true);
    // Every non-root rule must be referenced at least twice.
    for (auto id : g.liveRuleIds()) {
        if (id == Sequitur::kRootRule)
            continue;
        EXPECT_GE(g.ruleRefs(id), 1u);
    }
}

TEST(Sequitur, RuleLengthsMatchExpansion)
{
    Sequitur g;
    std::vector<std::uint64_t> in;
    for (int rep = 0; rep < 6; ++rep)
        for (std::uint64_t v : {1, 2, 3, 4, 5, 9, 2, 3, 4, 7})
            in.push_back(v);
    g.appendAll(in);
    const auto lens = g.ruleLengths();
    for (auto id : g.liveRuleIds()) {
        EXPECT_EQ(lens[id], g.expandRule(id).size()) << "rule " << id;
    }
    EXPECT_EQ(lens[Sequitur::kRootRule], in.size());
}

TEST(Sequitur, DetectsLongRepeatedSequence)
{
    // A 50-symbol "stream" occurring three times among noise: expect a
    // rule whose expansion length is (close to) 50.
    Rng rng(123);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 50; ++i)
        stream.push_back(1000 + i);

    std::vector<std::uint64_t> in;
    auto noise = [&](int n) {
        for (int i = 0; i < n; ++i)
            in.push_back(rng.range(1, 500)); // mostly unique pairs
    };
    noise(100);
    in.insert(in.end(), stream.begin(), stream.end());
    noise(100);
    in.insert(in.end(), stream.begin(), stream.end());
    noise(100);
    in.insert(in.end(), stream.begin(), stream.end());

    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(g.expandRule(Sequitur::kRootRule), in);

    const auto lens = g.ruleLengths();
    std::uint64_t longest = 0;
    for (auto id : g.liveRuleIds())
        if (id != Sequitur::kRootRule)
            longest = std::max(longest, lens[id]);
    EXPECT_GE(longest, 45u);
    g.checkInvariants(true);
}

// ---------------------------------------------------------------------
// Property tests over random inputs: exact reconstruction and both
// SEQUITUR invariants for a spread of alphabet sizes and lengths.
// ---------------------------------------------------------------------

struct SequiturPropertyParam
{
    std::uint64_t seed;
    std::size_t length;
    std::uint64_t alphabet;
};

class SequiturPropertyTest
    : public ::testing::TestWithParam<SequiturPropertyParam>
{
};

TEST_P(SequiturPropertyTest, ReconstructsInputAndKeepsInvariants)
{
    const auto param = GetParam();
    Rng rng(param.seed);
    std::vector<std::uint64_t> in(param.length);
    for (auto &v : in)
        v = rng.below(param.alphabet);

    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(g.expandRule(Sequitur::kRootRule), in);
    g.checkInvariants(true);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SequiturPropertyTest,
    ::testing::Values(
        SequiturPropertyParam{1, 10, 2}, SequiturPropertyParam{2, 100, 2},
        SequiturPropertyParam{3, 1000, 2},
        SequiturPropertyParam{4, 10000, 2},
        SequiturPropertyParam{5, 100, 4},
        SequiturPropertyParam{6, 1000, 4},
        SequiturPropertyParam{7, 10000, 4},
        SequiturPropertyParam{8, 1000, 16},
        SequiturPropertyParam{9, 10000, 16},
        SequiturPropertyParam{10, 50000, 16},
        SequiturPropertyParam{11, 1000, 256},
        SequiturPropertyParam{12, 10000, 256},
        SequiturPropertyParam{13, 50000, 1024},
        SequiturPropertyParam{14, 20000, 8},
        SequiturPropertyParam{15, 30000, 3}));

TEST(Sequitur, RepeatedBlocksWithPeriodicStructure)
{
    // Periodic input with a long period: SEQUITUR should compress the
    // repetition heavily (few root symbols relative to input).
    std::vector<std::uint64_t> period;
    Rng rng(77);
    for (int i = 0; i < 97; ++i)
        period.push_back(rng.below(64));

    Sequitur g;
    for (int rep = 0; rep < 50; ++rep)
        g.appendAll(period);

    EXPECT_EQ(g.inputLength(), 97u * 50u);
    const auto root = g.ruleBody(Sequitur::kRootRule);
    EXPECT_LT(root.size(), 97u * 5u);
    const auto out = g.expandRule(Sequitur::kRootRule);
    ASSERT_EQ(out.size(), 97u * 50u);
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], period[i % 97]) << "at " << i;
    g.checkInvariants(true);
}

TEST(Sequitur, LargestTerminalRoundTrips)
{
    constexpr std::uint64_t kMax = Sequitur::kTerminalLimit - 1;
    const std::vector<std::uint64_t> in{kMax, 0, kMax, 0, kMax, kMax,
                                        kMax, 1, kMax, 0};
    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(g.expandRule(Sequitur::kRootRule), in);
    const auto lens = g.ruleLengths();
    for (auto id : g.liveRuleIds())
        EXPECT_EQ(lens[id], g.expandRule(id).size()) << "rule " << id;
    g.checkInvariants(true);
}

TEST(SequiturDeathTest, TerminalAtLimitPanics)
{
    Sequitur g;
    EXPECT_DEATH(g.append(Sequitur::kTerminalLimit),
                 "terminal value too large");
}

// ---------------------------------------------------------------------
// Frozen reference: the 24 B-symbol builder, verbatim apart from the
// class name and the inspection methods these tests do not call.
// ---------------------------------------------------------------------

class RefSequitur
{
  public:
    RefSequitur();

    RefSequitur(const RefSequitur &) = delete;
    RefSequitur &operator=(const RefSequitur &) = delete;

    /** Append one terminal to the input sequence. */
    void append(std::uint64_t terminal);

    /** Append a whole sequence. */
    void
    appendAll(const std::vector<std::uint64_t> &seq)
    {
        for (auto t : seq)
            append(t);
    }

    /** Number of terminals appended so far. */
    std::uint64_t inputLength() const { return inputLen_; }

    /** Number of live rules, excluding the root. */
    std::size_t ruleCount() const { return liveRules_; }

    // ------------------------------------------------------------------
    // Post-construction inspection. Symbols inside rule bodies are
    // reported as GrammarSymbol{isRule, value}: terminals carry the
    // original terminal value, non-terminals the rule id.
    // ------------------------------------------------------------------

    /** One symbol of a flattened rule body. */
    struct GrammarSymbol
    {
        bool isRule = false;
        std::uint64_t value = 0; ///< terminal value or rule id

        bool
        operator==(const GrammarSymbol &o) const
        {
            return isRule == o.isRule && value == o.value;
        }
    };

    /** Root rule id (always 0). */
    static constexpr std::uint32_t kRootRule = 0;

    /** Ids of all live rules including the root. */
    std::vector<std::uint32_t> liveRuleIds() const;

    /** Right-hand side of rule @p id. */
    std::vector<GrammarSymbol> ruleBody(std::uint32_t id) const;

    /**
     * Expanded length of each live rule, indexed by rule id (dead rule
     * ids hold 0). Computed in one pass; O(total grammar size).
     */
    std::vector<std::uint64_t> ruleLengths() const;

  private:
    /** Arena index of a symbol. */
    using SymIdx = std::uint32_t;

    static constexpr SymIdx kNoSym = 0xFFFFFFFFu;
    /** Symbol::tag of a terminal. */
    static constexpr std::uint32_t kTermMark = 0xFFFFFFFFu;
    /** Symbol::tag bit marking a rule's guard node. */
    static constexpr std::uint32_t kGuardBit = 0x80000000u;

    /**
     * One arena slot: list links plus the symbol identity packed into
     * `tag` — kTermMark for terminals (value in `term`), the rule id
     * for non-terminals, and kGuardBit|rule-id for guard nodes.
     */
    struct Symbol
    {
        SymIdx prev = kNoSym;
        SymIdx next = kNoSym;
        std::uint32_t tag = kTermMark;
        std::uint64_t term = 0;
    };

    struct Rule
    {
        std::uint32_t refs = 0;
        SymIdx guard = kNoSym;
        bool live = true;
    };

    /**
     * Open-addressing digram index: (tagged value a, tagged value b)
     * -> arena index of the digram's registered first symbol. Linear
     * probing, tombstone deletion, grown (and tombstone-purged) at
     * 3/4 load. Same mapping semantics as the std::unordered_map it
     * replaces, minus the per-node allocations and pointer chasing.
     */
    class DigramTable
    {
      public:
        DigramTable();

        /** The digram key mix (shared with checkInvariants()). */
        static std::size_t hashKey(std::uint64_t a, std::uint64_t b);

        /** @return the mapped symbol, or kNoSym if absent. */
        SymIdx find(std::uint64_t a, std::uint64_t b) const;

        /** Insert or overwrite the mapping for (a, b). */
        void put(std::uint64_t a, std::uint64_t b, SymIdx sym);

        /** Remove (a, b) only if it currently maps to @p ifSym. */
        void erase(std::uint64_t a, std::uint64_t b, SymIdx ifSym);

      private:
        struct Slot
        {
            std::uint64_t a = 0;
            std::uint64_t b = 0;
            SymIdx sym = kEmpty;
        };

        static constexpr SymIdx kEmpty = 0xFFFFFFFFu;
        static constexpr SymIdx kTomb = 0xFFFFFFFEu;

        void grow();

        std::vector<Slot> slots_; ///< size is a power of two
        std::size_t occupied_ = 0; ///< live entries
        std::size_t used_ = 0;     ///< live entries + tombstones
    };

    static constexpr std::uint64_t kNtTag = 1ull << 63;
    static constexpr std::uint64_t kGuardTag = 1ull << 62;

    bool
    isGuard(SymIdx s) const
    {
        const std::uint32_t t = symbols_[s].tag;
        return t != kTermMark && (t & kGuardBit) != 0;
    }

    bool
    isNonTerminal(SymIdx s) const
    {
        const std::uint32_t t = symbols_[s].tag;
        return t != kTermMark && (t & kGuardBit) == 0;
    }

    /** Rule id of a non-terminal or guard symbol. */
    std::uint32_t
    ruleIdOf(SymIdx s) const
    {
        return symbols_[s].tag & ~kGuardBit;
    }

    /**
     * Tagged value of a symbol for digram keys and run comparisons.
     * Terminals, non-terminals, and guards occupy disjoint tag spaces.
     */
    std::uint64_t
    valueAt(SymIdx s) const
    {
        const Symbol &sym = symbols_[s];
        if (sym.tag == kTermMark)
            return sym.term;
        if (sym.tag & kGuardBit)
            return kGuardTag | (sym.tag & ~kGuardBit);
        return kNtTag | sym.tag;
    }

    SymIdx newSymbol();
    void freeSymbol(SymIdx s);
    SymIdx newTerminal(std::uint64_t t);
    SymIdx newNonTerminal(std::uint32_t rule);
    std::uint32_t newRule();

    void link(SymIdx a, SymIdx b);

    /**
     * Link @p left -> @p right, maintaining the digram index: the
     * broken digram at @p left is dropped, and overlapped occurrences
     * in same-value runs are re-registered (the canonical algorithm's
     * "triples" handling).
     */
    void join(SymIdx left, SymIdx right);

    /** Remove the index entry for the digram starting at @p a, if it
     *  points at @p a. */
    void removeDigram(SymIdx a);

    /** Unlink and free @p s, maintaining digram index and rule refs. */
    void deleteSymbol(SymIdx s);

    /**
     * Enforce digram uniqueness for the digram starting at @p a.
     * @return true if the grammar was restructured.
     */
    bool check(SymIdx a);

    /** Handle a duplicate digram: @p a matches earlier occurrence
     *  @p m. */
    void processMatch(SymIdx a, SymIdx m);

    /** Replace the digram at @p a with a reference to rule @p r. */
    void substitute(SymIdx a, std::uint32_t r);

    /** Inline the sole use @p nt of its rule (rule utility). */
    void expand(SymIdx nt);

    std::vector<Symbol> symbols_; ///< pooled arena, index-linked
    std::vector<SymIdx> freeList_;
    std::vector<Rule> rules_; ///< by id; dead rules stay (live=false)
    DigramTable index_;
    std::uint64_t inputLen_ = 0;
    std::size_t liveRules_ = 0;
};

// ---------------------------------------------------------------------------
// DigramTable
// ---------------------------------------------------------------------------

RefSequitur::DigramTable::DigramTable()
    : slots_(1024)
{
}

std::size_t
RefSequitur::DigramTable::hashKey(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t h = a * 0x9e3779b97f4a7c15ull;
    h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
    // The table is masked to a power of two; fold the high-entropy
    // bits of the multiply back into the low bits.
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
}

RefSequitur::SymIdx
RefSequitur::DigramTable::find(std::uint64_t a, std::uint64_t b) const
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hashKey(a, b) & mask;; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (s.sym == kEmpty)
            return kNoSym;
        if (s.sym != kTomb && s.a == a && s.b == b)
            return s.sym;
    }
}

void
RefSequitur::DigramTable::put(std::uint64_t a, std::uint64_t b, SymIdx sym)
{
    if ((used_ + 1) * 4 >= slots_.size() * 3)
        grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t tomb = SIZE_MAX;
    for (std::size_t i = hashKey(a, b) & mask;; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.sym == kEmpty) {
            // Reuse the first tombstone on the probe path, if any, so
            // heavily-churned keys do not stretch probe sequences.
            if (tomb != SIZE_MAX) {
                slots_[tomb] = Slot{a, b, sym};
            } else {
                s = Slot{a, b, sym};
                ++used_;
            }
            ++occupied_;
            return;
        }
        if (s.sym == kTomb) {
            if (tomb == SIZE_MAX)
                tomb = i;
            continue;
        }
        if (s.a == a && s.b == b) {
            s.sym = sym;
            return;
        }
    }
}

void
RefSequitur::DigramTable::erase(std::uint64_t a, std::uint64_t b,
                             SymIdx ifSym)
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hashKey(a, b) & mask;; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.sym == kEmpty)
            return;
        if (s.sym != kTomb && s.a == a && s.b == b) {
            if (s.sym == ifSym) {
                s.sym = kTomb;
                --occupied_;
            }
            return;
        }
    }
}

void
RefSequitur::DigramTable::grow()
{
    // Double while the live load would stay >= 1/2; a grow() call with
    // mostly tombstones keeps the size and just purges them.
    std::size_t n = slots_.size();
    while (occupied_ * 2 >= n)
        n *= 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(n, Slot{});
    const std::size_t mask = n - 1;
    std::size_t live = 0;
    for (const Slot &s : old) {
        if (s.sym >= kTomb)
            continue;
        std::size_t i = hashKey(s.a, s.b) & mask;
        while (slots_[i].sym != kEmpty)
            i = (i + 1) & mask;
        slots_[i] = s;
        ++live;
    }
    occupied_ = used_ = live;
}

// ---------------------------------------------------------------------------
// Construction primitives
// ---------------------------------------------------------------------------

RefSequitur::RefSequitur()
{
    // Rule 0 is the root; it is never referenced by a symbol.
    newRule();
}

RefSequitur::SymIdx
RefSequitur::newSymbol()
{
    if (!freeList_.empty()) {
        const SymIdx s = freeList_.back();
        freeList_.pop_back();
        symbols_[s] = Symbol{};
        return s;
    }
    panicIf(symbols_.size() >= kNoSym - 1,
            "Sequitur: symbol arena exhausted");
    symbols_.emplace_back();
    return static_cast<SymIdx>(symbols_.size() - 1);
}

void
RefSequitur::freeSymbol(SymIdx s)
{
    freeList_.push_back(s);
}

RefSequitur::SymIdx
RefSequitur::newTerminal(std::uint64_t t)
{
    panicIf(t >= kNtTag >> 2, "Sequitur: terminal value too large");
    const SymIdx s = newSymbol();
    symbols_[s].term = t;
    return s;
}

RefSequitur::SymIdx
RefSequitur::newNonTerminal(std::uint32_t rule)
{
    const SymIdx s = newSymbol();
    symbols_[s].tag = rule;
    rules_[rule].refs++;
    return s;
}

std::uint32_t
RefSequitur::newRule()
{
    const auto id = static_cast<std::uint32_t>(rules_.size());
    // kGuardBit - 1 is unusable: its guard tag would collide with
    // kTermMark and read back as a terminal.
    panicIf(id >= kGuardBit - 1, "Sequitur: rule ids exhausted");
    const SymIdx g = newSymbol();
    symbols_[g].tag = kGuardBit | id;
    rules_.push_back(Rule{0, g, true});
    link(g, g); // empty circular body
    ++liveRules_;
    return id;
}

void
RefSequitur::link(SymIdx a, SymIdx b)
{
    symbols_[a].next = b;
    symbols_[b].prev = a;
}

void
RefSequitur::removeDigram(SymIdx a)
{
    const SymIdx n = symbols_[a].next;
    if (isGuard(a) || isGuard(n))
        return;
    index_.erase(valueAt(a), valueAt(n), a);
}

void
RefSequitur::join(SymIdx left, SymIdx right)
{
    if (symbols_[left].next != kNoSym) {
        // Re-linking an existing neighbourhood: drop the digram that is
        // being broken, and handle the canonical algorithm's "triples"
        // subtlety — when same-value runs lose their registered
        // occurrence, re-register the surviving overlapped occurrence.
        removeDigram(left);

        const SymIdx rp = symbols_[right].prev;
        const SymIdx rn = symbols_[right].next;
        if (rp != kNoSym && rn != kNoSym && !isGuard(right) &&
            !isGuard(rp) && !isGuard(rn) &&
            valueAt(right) == valueAt(rp) &&
            valueAt(right) == valueAt(rn)) {
            index_.put(valueAt(right), valueAt(rn), right);
        }
        const SymIdx lp = symbols_[left].prev;
        const SymIdx ln = symbols_[left].next;
        if (lp != kNoSym && ln != kNoSym && !isGuard(left) &&
            !isGuard(lp) && !isGuard(ln) &&
            valueAt(left) == valueAt(ln) &&
            valueAt(left) == valueAt(lp)) {
            index_.put(valueAt(lp), valueAt(left), lp);
        }
    }
    link(left, right);
}

void
RefSequitur::deleteSymbol(SymIdx s)
{
    join(symbols_[s].prev, symbols_[s].next);
    if (!isGuard(s)) {
        removeDigram(s); // (s, old next); s's next field is intact
        if (isNonTerminal(s))
            rules_[ruleIdOf(s)].refs--;
    }
    freeSymbol(s);
}

// ---------------------------------------------------------------------------
// The algorithm
// ---------------------------------------------------------------------------

void
RefSequitur::append(std::uint64_t terminal)
{
    const SymIdx s = newTerminal(terminal);
    const SymIdx guard = rules_[kRootRule].guard;
    const SymIdx last = symbols_[guard].prev;
    join(s, guard);
    join(last, s);
    ++inputLen_;
    check(last);
}

bool
RefSequitur::check(SymIdx a)
{
    const SymIdx an = symbols_[a].next;
    if (isGuard(a) || isGuard(an))
        return false;

    const std::uint64_t ka = valueAt(a);
    const std::uint64_t kb = valueAt(an);
    const SymIdx m = index_.find(ka, kb);
    if (m == kNoSym) {
        index_.put(ka, kb, a);
        return false;
    }

    if (m == a)
        return false;
    // Overlapping occurrences (e.g. "aaa"): leave the grammar alone.
    if (symbols_[m].next == a || symbols_[a].next == m)
        return false;

    processMatch(a, m);
    return true;
}

void
RefSequitur::processMatch(SymIdx a, SymIdx m)
{
    std::uint32_t r;
    const SymIdx mp = symbols_[m].prev;
    if (isGuard(mp) && isGuard(symbols_[symbols_[m].next].next)) {
        // The earlier occurrence is exactly an existing rule's body:
        // reuse that rule.
        r = ruleIdOf(mp);
        substitute(a, r);
    } else {
        // Create a new rule from the digram's values.
        r = newRule();
        const SymIdx x = newSymbol();
        const SymIdx y = newSymbol();
        {
            Symbol &sx = symbols_[x];
            const Symbol &sa = symbols_[a];
            sx.tag = sa.tag;
            sx.term = sa.term;
            if (sa.tag != kTermMark)
                rules_[sa.tag].refs++;
        }
        {
            Symbol &sy = symbols_[y];
            const Symbol &sn = symbols_[symbols_[a].next];
            sy.tag = sn.tag;
            sy.term = sn.term;
            if (sn.tag != kTermMark)
                rules_[sn.tag].refs++;
        }
        const SymIdx g = rules_[r].guard;
        link(g, x);
        link(x, y);
        link(y, g);
        substitute(m, r);
        substitute(a, r);
        // Register the rule body digram *after* the substitutions
        // (canonical order): the joins inside the substitutions may
        // transiently re-register run-overlap occurrences of this key,
        // and the body must win.
        index_.put(valueAt(x), valueAt(y), x);
    }

    // Rule utility: if a symbol of the (new or reused) rule's body is a
    // rule now referenced only once, inline it. Check the first
    // position, then the last if the first was fine.
    const SymIdx g = rules_[r].guard;
    const SymIdx f = symbols_[g].next;
    if (isNonTerminal(f) && rules_[ruleIdOf(f)].refs == 1) {
        expand(f);
    } else {
        const SymIdx l = symbols_[g].prev;
        if (l != f && isNonTerminal(l) && rules_[ruleIdOf(l)].refs == 1)
            expand(l);
    }
}

void
RefSequitur::substitute(SymIdx a, std::uint32_t r)
{
    const SymIdx prev = symbols_[a].prev;
    deleteSymbol(a);
    deleteSymbol(symbols_[prev].next);
    const SymIdx nt = newNonTerminal(r);
    join(nt, symbols_[prev].next);
    join(prev, nt);
    // Enforce uniqueness on the new adjacencies. If the left check
    // restructures the grammar, it re-establishes the invariant for
    // the affected neighbourhood, so the right check is skipped
    // (canonical behaviour).
    if (!check(prev))
        check(nt);
}

void
RefSequitur::expand(SymIdx nt)
{
    const std::uint32_t r = ruleIdOf(nt);
    panicIf(rules_[r].refs != 1, "RefSequitur::expand of rule with refs != 1");

    const SymIdx left = symbols_[nt].prev;
    const SymIdx right = symbols_[nt].next;
    const SymIdx g = rules_[r].guard;
    const SymIdx first = symbols_[g].next;
    const SymIdx last = symbols_[g].prev;
    panicIf(isGuard(first), "RefSequitur::expand of empty rule");

    // Remove digrams that involve the non-terminal being inlined.
    removeDigram(left); // (left, nt)
    removeDigram(nt);   // (nt, right)

    // Splice the body into the host rule.
    join(left, first);
    join(last, right);

    // Retire the rule and the non-terminal symbol.
    freeSymbol(g);
    rules_[r].guard = kNoSym;
    rules_[r].refs = 0;
    rules_[r].live = false;
    --liveRules_;
    freeSymbol(nt);

    // Exactly one of the two boundary digrams is real: expand() is
    // called for a body symbol of a freshly created rule, whose other
    // side is the guard. Enforce uniqueness on the real one last, so
    // any cascading restructuring cannot invalidate indexes we still
    // use.
    if (isGuard(left))
        check(last);
    else
        check(left);
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

std::vector<std::uint32_t>
RefSequitur::liveRuleIds() const
{
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < rules_.size(); ++id)
        if (rules_[id].live)
            ids.push_back(id);
    return ids;
}

std::vector<RefSequitur::GrammarSymbol>
RefSequitur::ruleBody(std::uint32_t id) const
{
    const Rule &r = rules_.at(id);
    panicIf(!r.live, "RefSequitur::ruleBody of dead rule");
    std::vector<GrammarSymbol> body;
    for (SymIdx s = symbols_[r.guard].next; !isGuard(s);
         s = symbols_[s].next) {
        if (isNonTerminal(s))
            body.push_back({true, ruleIdOf(s)});
        else
            body.push_back({false, symbols_[s].term});
    }
    return body;
}

std::vector<std::uint64_t>
RefSequitur::ruleLengths() const
{
    std::vector<std::uint64_t> len(rules_.size(), 0);
    // Dependency-ordered evaluation via iterative post-order DFS.
    std::vector<std::uint8_t> state(rules_.size(), 0); // 0 new 1 open 2 done
    std::vector<std::uint32_t> stack;
    for (std::uint32_t root = 0; root < rules_.size(); ++root) {
        if (!rules_[root].live || state[root] == 2)
            continue;
        stack.push_back(root);
        while (!stack.empty()) {
            const std::uint32_t id = stack.back();
            if (state[id] == 0) {
                state[id] = 1;
                for (SymIdx s = symbols_[rules_[id].guard].next;
                     !isGuard(s); s = symbols_[s].next) {
                    if (isNonTerminal(s) && state[ruleIdOf(s)] == 0)
                        stack.push_back(ruleIdOf(s));
                }
            } else {
                stack.pop_back();
                if (state[id] == 1) {
                    state[id] = 2;
                    std::uint64_t n = 0;
                    for (SymIdx s = symbols_[rules_[id].guard].next;
                         !isGuard(s); s = symbols_[s].next)
                        n += isNonTerminal(s) ? len[ruleIdOf(s)] : 1;
                    len[id] = n;
                }
            }
        }
    }
    return len;
}

// ---------------------------------------------------------------------
// Differential suite: packed builder vs frozen reference, exact
// equality of rule ids, bodies and lengths.
// ---------------------------------------------------------------------

void
expectSameGrammar(const Sequitur &g, const RefSequitur &ref)
{
    ASSERT_EQ(g.ruleCount(), ref.ruleCount());
    const auto ids = g.liveRuleIds();
    ASSERT_EQ(ids, ref.liveRuleIds());
    for (auto id : ids) {
        const auto body = g.ruleBody(id);
        const auto refBody = ref.ruleBody(id);
        bool same = body.size() == refBody.size();
        for (std::size_t i = 0; same && i < body.size(); ++i)
            same = body[i].isRule == refBody[i].isRule &&
                   body[i].value == refBody[i].value;
        ASSERT_TRUE(same) << "body of rule " << id << " differs";
    }
    EXPECT_EQ(g.ruleLengths(), ref.ruleLengths());
}

/**
 * Seeded input over @p alphabet: random symbols, same-symbol runs
 * (the triples case) and planted motifs, some with one symbol changed,
 * so the grammar nests deeply and churns its digram index.
 */
std::vector<std::uint64_t>
seededInput(std::uint64_t seed, std::size_t length, std::uint64_t alphabet)
{
    Rng rng(seed);
    std::vector<std::vector<std::uint64_t>> motifs(8);
    for (auto &m : motifs) {
        m.resize(rng.range(4, 64));
        for (auto &v : m)
            v = rng.below(alphabet);
    }
    std::vector<std::uint64_t> out;
    out.reserve(length + 64);
    while (out.size() < length) {
        switch (rng.below(4)) {
          case 0:
            out.push_back(rng.below(alphabet));
            break;
          case 1:
            out.insert(out.end(), rng.range(2, 40), rng.below(alphabet));
            break;
          default: {
            const auto &m = motifs[rng.below(motifs.size())];
            const std::size_t at = out.size();
            out.insert(out.end(), m.begin(), m.end());
            if (rng.chance(0.25))
                out[at + rng.below(m.size())] = rng.below(alphabet);
          }
        }
    }
    out.resize(length);
    return out;
}

struct DiffParam
{
    std::uint64_t seed;
    std::size_t length;
    std::uint64_t alphabet;
};

class SequiturDiffTest : public ::testing::TestWithParam<DiffParam>
{
};

TEST_P(SequiturDiffTest, MatchesFrozenReference)
{
    const auto param = GetParam();
    const auto in = seededInput(param.seed, param.length, param.alphabet);
    Sequitur g;
    RefSequitur ref;
    g.appendAll(in);
    ref.appendAll(in);
    expectSameGrammar(g, ref);
    g.checkInvariants(true);
}

INSTANTIATE_TEST_SUITE_P(
    SeededInputs, SequiturDiffTest,
    ::testing::Values(DiffParam{21, 1000, 2}, DiffParam{22, 200000, 2},
                      DiffParam{23, 5000, 16}, DiffParam{24, 200000, 16},
                      DiffParam{25, 20000, 4096},
                      DiffParam{26, 200000, 4096},
                      DiffParam{27, 50000, 1u << 20},
                      DiffParam{28, 200000, 1u << 20}));

TEST(SequiturDiff, MatchesFrozenReferenceOnQuickTraceProjection)
{
    // What `tstream-trace record --quick --workload oltp --context
    // multi-chip` records.
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Oltp;
    cfg.context = SystemContext::MultiChip;
    cfg.warmupInstructions = kQuickBudgets.warmupInstructions;
    cfg.measureInstructions = kQuickBudgets.measureInstructions;
    cfg.scale = kQuickBudgets.scale;
    const MissTrace trace = runExperiment(cfg).offChip;
    ASSERT_GT(trace.misses.size(), 1000u);

    // The per-CPU projection twice: blocks interned densely with each
    // sentinel taking the next dense id, and with the sentinels in a
    // disjoint 2^40 tag space (the earlier naming). SEQUITUR only
    // compares symbols, so both must give the same rules.
    const unsigned ncpu = std::max(1u, trace.numCpus);
    std::vector<std::uint64_t> dense, tagged;
    std::unordered_map<BlockId, std::uint64_t> intern;
    std::uint64_t next = 0;
    for (unsigned c = 0; c < ncpu; ++c) {
        for (const MissRecord &m : trace.misses) {
            if (m.cpu != c)
                continue;
            auto [it, fresh] = intern.try_emplace(m.block, next);
            if (fresh)
                ++next;
            dense.push_back(it->second);
            tagged.push_back(it->second);
        }
        dense.push_back(next);
        tagged.push_back(std::uint64_t{1} << 40 | next);
        ++next;
    }

    Sequitur g;
    RefSequitur ref, refTagged;
    g.appendAll(dense);
    ref.appendAll(dense);
    refTagged.appendAll(tagged);
    expectSameGrammar(g, ref);
    EXPECT_EQ(g.ruleCount(), refTagged.ruleCount());
    EXPECT_EQ(g.ruleLengths(), refTagged.ruleLengths());
    EXPECT_EQ(g.expandRule(Sequitur::kRootRule), dense);
}

} // namespace
} // namespace tstream
