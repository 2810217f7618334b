#include "core/sequitur.hh"

#include <unordered_map>

namespace tstream
{

// ---------------------------------------------------------------------------
// DigramTable
// ---------------------------------------------------------------------------

Sequitur::DigramTable::DigramTable()
    : slots_(std::size_t{1} << kInitialBits), shift_(64 - kInitialBits)
{
}

Sequitur::SymIdx
Sequitur::DigramTable::find(std::uint64_t key) const
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (s.sym == kEmpty)
            return kNoSym;
        if (s.key == key && s.sym != kTomb)
            return s.sym;
    }
}

void
Sequitur::DigramTable::put(std::uint64_t key, SymIdx sym)
{
    if ((used_ + 1) * 4 >= slots_.size() * 3)
        grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t tomb = SIZE_MAX;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.sym == kEmpty) {
            // Reuse the first tombstone on the probe path, if any, so
            // heavily-churned keys do not stretch probe sequences.
            if (tomb != SIZE_MAX) {
                slots_[tomb] = Slot{key, sym};
            } else {
                s = Slot{key, sym};
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
        if (s.key == key) {
            s.sym = sym;
            return;
        }
    }
}

void
Sequitur::DigramTable::erase(std::uint64_t key, SymIdx ifSym)
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.sym == kEmpty)
            return;
        if (s.key == key && s.sym != kTomb) {
            if (s.sym == ifSym) {
                s.sym = kTomb;
                --occupied_;
            }
            return;
        }
    }
}

void
Sequitur::DigramTable::grow()
{
    // Double while the live load would stay >= 1/2; a grow() call with
    // mostly tombstones keeps the size and just purges them.
    std::size_t n = slots_.size();
    while (occupied_ * 2 >= n) {
        n *= 2;
        --shift_;
    }
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(n, Slot{});
    const std::size_t mask = n - 1;
    std::size_t live = 0;
    for (const Slot &s : old) {
        if (s.sym >= kTomb)
            continue;
        std::size_t i = home(s.key);
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

Sequitur::Sequitur()
{
    // Rule 0 is the root; it is never referenced by a symbol.
    newRule();
}

Sequitur::SymIdx
Sequitur::newSymbol(std::uint32_t tag)
{
    if (!freeList_.empty()) {
        const SymIdx s = freeList_.back();
        freeList_.pop_back();
        symbols_[s] = Symbol{kNoSym, kNoSym, tag};
        return s;
    }
    panicIf(symbols_.size() >= kNoSym - 1,
            "Sequitur: symbol arena exhausted");
    symbols_.push_back(Symbol{kNoSym, kNoSym, tag});
    return static_cast<SymIdx>(symbols_.size() - 1);
}

void
Sequitur::freeSymbol(SymIdx s)
{
    freeList_.push_back(s);
}

Sequitur::SymIdx
Sequitur::newNonTerminal(std::uint32_t rule)
{
    rules_[rule].refs++;
    return newSymbol(kNtBit | rule);
}

std::uint32_t
Sequitur::newRule()
{
    const auto id = static_cast<std::uint32_t>(rules_.size());
    panicIf(id > kIdMask, "Sequitur: rule ids exhausted");
    const SymIdx g = newSymbol(kGuardTag | id);
    rules_.push_back(Rule{0, g, true});
    link(g, g); // empty circular body
    ++liveRules_;
    return id;
}

void
Sequitur::link(SymIdx a, SymIdx b)
{
    symbols_[a].next = b;
    symbols_[b].prev = a;
}

void
Sequitur::removeDigram(SymIdx a)
{
    const SymIdx n = symbols_[a].next;
    if (isGuard(a) || isGuard(n))
        return;
    index_.erase(digramKey(valueAt(a), valueAt(n)), a);
}

void
Sequitur::join(SymIdx left, SymIdx right)
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
            index_.put(digramKey(valueAt(right), valueAt(rn)), right);
        }
        const SymIdx lp = symbols_[left].prev;
        const SymIdx ln = symbols_[left].next;
        if (lp != kNoSym && ln != kNoSym && !isGuard(left) &&
            !isGuard(lp) && !isGuard(ln) &&
            valueAt(left) == valueAt(ln) &&
            valueAt(left) == valueAt(lp)) {
            index_.put(digramKey(valueAt(lp), valueAt(left)), lp);
        }
    }
    link(left, right);
}

void
Sequitur::deleteSymbol(SymIdx s)
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
Sequitur::append(std::uint64_t terminal)
{
    panicIf(terminal >= kTerminalLimit,
            "Sequitur: terminal value too large");
    const SymIdx s = newSymbol(static_cast<std::uint32_t>(terminal));
    const SymIdx guard = rules_[kRootRule].guard;
    const SymIdx last = symbols_[guard].prev;
    join(s, guard);
    join(last, s);
    ++inputLen_;
    check(last);
}

bool
Sequitur::check(SymIdx a)
{
    const SymIdx an = symbols_[a].next;
    if (isGuard(a) || isGuard(an))
        return false;

    const std::uint64_t key = digramKey(valueAt(a), valueAt(an));
    const SymIdx m = index_.find(key);
    if (m == kNoSym) {
        index_.put(key, a);
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
Sequitur::processMatch(SymIdx a, SymIdx m)
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
        const SymIdx x = newSymbol(valueAt(a));
        const SymIdx y = newSymbol(valueAt(symbols_[a].next));
        if (isNonTerminal(x))
            rules_[ruleIdOf(x)].refs++;
        if (isNonTerminal(y))
            rules_[ruleIdOf(y)].refs++;
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
        index_.put(digramKey(valueAt(x), valueAt(y)), x);
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
Sequitur::substitute(SymIdx a, std::uint32_t r)
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
Sequitur::expand(SymIdx nt)
{
    const std::uint32_t r = ruleIdOf(nt);
    panicIf(rules_[r].refs != 1, "Sequitur::expand of rule with refs != 1");

    const SymIdx left = symbols_[nt].prev;
    const SymIdx right = symbols_[nt].next;
    const SymIdx g = rules_[r].guard;
    const SymIdx first = symbols_[g].next;
    const SymIdx last = symbols_[g].prev;
    panicIf(isGuard(first), "Sequitur::expand of empty rule");

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
Sequitur::liveRuleIds() const
{
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < rules_.size(); ++id)
        if (rules_[id].live)
            ids.push_back(id);
    return ids;
}

std::vector<Sequitur::GrammarSymbol>
Sequitur::ruleBody(std::uint32_t id) const
{
    const Rule &r = rules_.at(id);
    panicIf(!r.live, "Sequitur::ruleBody of dead rule");
    std::vector<GrammarSymbol> body;
    for (SymIdx s = bodyFirst(id); !atBodyEnd(s); s = bodyNext(s))
        body.push_back(symbolAt(s));
    return body;
}

std::uint32_t
Sequitur::ruleRefs(std::uint32_t id) const
{
    return rules_.at(id).refs;
}

std::vector<std::uint64_t>
Sequitur::expandRule(std::uint32_t id) const
{
    std::vector<std::uint64_t> out;
    // Iterative expansion with an explicit stack of symbol cursors.
    std::vector<SymIdx> stack;
    stack.push_back(symbols_[rules_.at(id).guard].next);
    while (!stack.empty()) {
        const SymIdx s = stack.back();
        if (isGuard(s)) {
            stack.pop_back();
            continue;
        }
        stack.back() = symbols_[s].next;
        if (isNonTerminal(s))
            stack.push_back(symbols_[rules_[ruleIdOf(s)].guard].next);
        else
            out.push_back(valueAt(s));
    }
    return out;
}

std::vector<std::uint64_t>
Sequitur::ruleLengths() const
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

std::size_t
Sequitur::checkInvariants(bool allow_utility_slack) const
{
    // Digram key -> (rule id, body index) of the last occurrence seen.
    // Duplicate digrams are allowed only when the occurrences overlap
    // (adjacent positions of a same-symbol run, e.g. "aaa"), the known
    // exception the canonical algorithm leaves in place.
    struct Occ
    {
        std::uint32_t rule;
        std::size_t idx;
    };
    std::unordered_map<std::uint64_t, Occ> seen;
    std::vector<std::uint32_t> refCount(rules_.size(), 0);
    std::size_t live = 0;

    for (std::uint32_t id = 0; id < rules_.size(); ++id) {
        const Rule &r = rules_[id];
        if (!r.live)
            continue;
        ++live;
        std::size_t body_len = 0;
        std::size_t idx = 0;
        for (SymIdx s = symbols_[r.guard].next; !isGuard(s);
             s = symbols_[s].next, ++idx) {
            ++body_len;
            if (isNonTerminal(s)) {
                panicIf(!rules_[ruleIdOf(s)].live,
                        "invariant: ref to dead rule");
                refCount[ruleIdOf(s)]++;
            }
            const SymIdx n = symbols_[s].next;
            if (!isGuard(n)) {
                auto [it, fresh] = seen.try_emplace(
                    digramKey(valueAt(s), valueAt(n)), Occ{id, idx});
                if (!fresh) {
                    const bool overlap = it->second.rule == id &&
                                         it->second.idx + 1 == idx &&
                                         valueAt(s) == valueAt(n);
                    panicIf(!overlap, "invariant: duplicate digram");
                    it->second = Occ{id, idx};
                }
            }
            panicIf(symbols_[n].prev != s, "invariant: broken list");
        }
        panicIf(id != kRootRule && body_len < 2,
                "invariant: rule body shorter than 2");
    }

    for (std::uint32_t id = 0; id < rules_.size(); ++id) {
        const Rule &r = rules_[id];
        if (!r.live || id == kRootRule)
            continue;
        panicIf(refCount[id] != r.refs,
                "invariant: refcount bookkeeping mismatch");
        if (!allow_utility_slack)
            panicIf(r.refs < 2, "invariant: under-used rule");
        else
            panicIf(r.refs < 1, "invariant: orphan rule");
    }
    return live;
}

} // namespace tstream
