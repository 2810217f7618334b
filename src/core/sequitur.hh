/**
 * @file
 * SEQUITUR hierarchical grammar inference (Nevill-Manning & Witten,
 * JAIR 1997), the information-theoretic engine the paper uses to find
 * temporal streams (Section 3).
 *
 * SEQUITUR incrementally builds a context-free grammar from a symbol
 * sequence while maintaining two invariants:
 *
 *  1. digram uniqueness — no pair of adjacent symbols appears more
 *     than once in the grammar;
 *  2. rule utility — every rule (except the root) is referenced more
 *     than once.
 *
 * Every non-root production rule therefore corresponds to a subsequence
 * that occurs at least twice in the input: a temporal stream.
 *
 * The implementation follows the canonical algorithm — doubly-linked
 * symbol lists with per-rule guard nodes, a digram index, rule
 * substitution on duplicate digrams, and inline expansion of
 * under-used rules — but on packed, cache-friendly storage: symbols
 * live in one pooled arena addressed by 32-bit indexes (12 B/symbol:
 * two links and one 32-bit tag that encodes terminal, non-terminal or
 * guard; LIFO slot recycling, no per-node allocation), rules are plain
 * values in a by-id vector, and the digram index is an open-addressing
 * table of 16 B slots keyed on the two tags packed into one 64-bit
 * word, with linear probing and tombstone deletion. The grammar
 * produced is bit-identical to the pointer-based implementation's;
 * only the constant factors changed.
 */

#ifndef TSTREAM_CORE_SEQUITUR_HH
#define TSTREAM_CORE_SEQUITUR_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace tstream
{

/**
 * A SEQUITUR grammar under incremental construction.
 *
 * Terminals are values below kTerminalLimit (2^31); callers intern
 * wider domains, e.g. block addresses, into dense ids.
 */
class Sequitur
{
  public:
    /** Every terminal must be below this; append() panics otherwise. */
    static constexpr std::uint64_t kTerminalLimit = std::uint64_t{1}
                                                    << 31;

    Sequitur();

    Sequitur(const Sequitur &) = delete;
    Sequitur &operator=(const Sequitur &) = delete;

    /** Append one terminal (below kTerminalLimit) to the input. */
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

    /** Number of symbol references to rule @p id (root: 0). */
    std::uint32_t ruleRefs(std::uint32_t id) const;

    /**
     * Fully expand rule @p id to terminals.
     * Expanding the root reproduces the input exactly.
     */
    std::vector<std::uint64_t> expandRule(std::uint32_t id) const;

    /**
     * Expanded length of each rule, indexed by rule id (dead rule ids
     * hold 0; the size is one past the largest id ever allocated).
     * Computed in one pass; O(total grammar size).
     */
    std::vector<std::uint64_t> ruleLengths() const;

    // ------------------------------------------------------------------
    // In-place body walk, for callers that traverse the derivation
    // without copying bodies: a body runs from bodyFirst(id) through
    // bodyNext() until atBodyEnd().
    // ------------------------------------------------------------------

    /** Handle of one symbol of a rule body. */
    using SymbolRef = std::uint32_t;

    /** First symbol of live rule @p id's body. */
    SymbolRef
    bodyFirst(std::uint32_t id) const
    {
        return symbols_[rules_[id].guard].next;
    }

    /** The symbol after @p s in its body. */
    SymbolRef bodyNext(SymbolRef s) const { return symbols_[s].next; }

    /** Whether @p s is past the last symbol of its body. */
    bool atBodyEnd(SymbolRef s) const { return isGuard(s); }

    /** Identity of body symbol @p s (not past the end). */
    GrammarSymbol
    symbolAt(SymbolRef s) const
    {
        const std::uint32_t t = symbols_[s].tag;
        if (t & kNtBit)
            return {true, t & kIdMask};
        return {false, t};
    }

    /**
     * Verify both SEQUITUR invariants plus list integrity; panics on
     * violation. Rule-utility slack (a rule referenced once) is
     * tolerated when @p allowUtilitySlack, since the canonical
     * algorithm admits rare transient under-use.
     * @return number of live rules checked.
     */
    std::size_t checkInvariants(bool allow_utility_slack = false) const;

  private:
    /** Arena index of a symbol. */
    using SymIdx = std::uint32_t;

    static constexpr SymIdx kNoSym = 0xFFFFFFFFu;

    // Symbol::tag encoding. A terminal is its own value (below 2^31);
    // a non-terminal sets kNtBit, a guard kNtBit|kGuardBit, each over
    // the rule id in the low 30 bits. The three spaces are disjoint,
    // so the tag alone identifies a symbol in digram keys.
    static constexpr std::uint32_t kNtBit = 0x80000000u;
    static constexpr std::uint32_t kGuardBit = 0x40000000u;
    static constexpr std::uint32_t kGuardTag = kNtBit | kGuardBit;
    static constexpr std::uint32_t kIdMask = kGuardBit - 1;

    /** One 12 B arena slot: list links plus the symbol's tag. */
    struct Symbol
    {
        SymIdx prev = kNoSym;
        SymIdx next = kNoSym;
        std::uint32_t tag = 0;
    };

    struct Rule
    {
        std::uint32_t refs = 0;
        SymIdx guard = kNoSym;
        bool live = true;
    };

    /**
     * Open-addressing digram index: the tags (a, b) packed as
     * a << 32 | b -> arena index of the digram's registered first
     * symbol. Linear probing from a Fibonacci hash, tombstone
     * deletion, grown (and tombstone-purged) at 3/4 load.
     */
    class DigramTable
    {
      public:
        DigramTable();

        /** @return the mapped symbol, or kNoSym if absent. */
        SymIdx find(std::uint64_t key) const;

        /** Insert or overwrite the mapping for @p key. */
        void put(std::uint64_t key, SymIdx sym);

        /** Remove @p key only if it currently maps to @p ifSym. */
        void erase(std::uint64_t key, SymIdx ifSym);

      private:
        /** 16 B with padding. */
        struct Slot
        {
            std::uint64_t key = 0;
            SymIdx sym = kEmpty;
        };

        static constexpr SymIdx kEmpty = 0xFFFFFFFFu;
        static constexpr SymIdx kTomb = 0xFFFFFFFEu;
        static constexpr unsigned kInitialBits = 10;

        /** Home slot of @p key at the current size. */
        std::size_t
        home(std::uint64_t key) const
        {
            return static_cast<std::size_t>(
                (key * 0x9e3779b97f4a7c15ull) >> shift_);
        }

        void grow();

        std::vector<Slot> slots_; ///< size is a power of two
        unsigned shift_;           ///< 64 - log2(slots_.size())
        std::size_t occupied_ = 0; ///< live entries
        std::size_t used_ = 0;     ///< live entries + tombstones
    };

    bool
    isGuard(SymIdx s) const
    {
        return (symbols_[s].tag & kGuardTag) == kGuardTag;
    }

    bool
    isNonTerminal(SymIdx s) const
    {
        return (symbols_[s].tag & kGuardTag) == kNtBit;
    }

    /** Rule id of a non-terminal or guard symbol. */
    std::uint32_t
    ruleIdOf(SymIdx s) const
    {
        return symbols_[s].tag & kIdMask;
    }

    /** Identity of a symbol for digram keys and run comparisons. */
    std::uint32_t valueAt(SymIdx s) const { return symbols_[s].tag; }

    /** The digram table key of the symbol pair (@p a, @p b). */
    static std::uint64_t
    digramKey(std::uint32_t a, std::uint32_t b)
    {
        return std::uint64_t{a} << 32 | b;
    }

    SymIdx newSymbol(std::uint32_t tag);
    void freeSymbol(SymIdx s);
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

} // namespace tstream

#endif // TSTREAM_CORE_SEQUITUR_HH
