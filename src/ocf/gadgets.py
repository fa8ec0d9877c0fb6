"""Hardness-gadget instance generators, used as solver stress fixtures.

Each generator encodes a classic NP-hard question into a game so that a
solver answers it by comparing one value against a returned threshold.  They
are test corpora, not deciders: the point is that the exact solvers reproduce
the intended yes/no labels on small hand-checkable instances.

* ``x3c_gadget``: exact cover by 3-sets as an optimal-structure question on a
  2-OCF game with weights at most 3.
* ``independent_set_gadget``: independent set as an optimal-structure question
  on a star-shaped interaction tree whose coalitions can be arbitrarily wide,
  which is exactly why it resists the pairwise tree solver and is handled by
  the brute-force oracle only.
* ``set_cover_arbitration_gadget``: set cover as a best-deviation question on
  a two-agent game under a bespoke non-local arbitration rule; it doubles as
  the counterexample fixture for the locality property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arbitration import ArbitrationRule, REFINED
from .core import (
    ZERO,
    ContractViolation,
    GameDef,
    InteractionGraph,
    Outcome,
    make_charfun,
)

ONE = Fraction(1)


@dataclass(frozen=True)
class X3cInstance:
    n_elements: int
    subsets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n_elements % 3 != 0 or self.n_elements <= 0:
            raise ContractViolation("element count must be a positive multiple of 3")
        seen = set()
        for s in self.subsets:
            if len(s) != 3:
                raise ContractViolation(f"subset {sorted(s)} does not have 3 elements")
            if any(e < 0 or e >= self.n_elements for e in s):
                raise ContractViolation(f"subset {sorted(s)} out of range")
            if s in seen:
                raise ContractViolation(f"duplicate subset {sorted(s)}")
            seen.add(s)


def has_exact_cover(x: X3cInstance) -> bool:
    """Reference decider by exhaustive subset selection (test oracle)."""
    t = len(x.subsets)
    want = frozenset(range(x.n_elements))
    for mask in range(1 << t):
        chosen = [x.subsets[j] for j in range(t) if mask >> j & 1]
        if sum(len(s) for s in chosen) != x.n_elements:
            continue
        union: set[int] = set()
        ok = True
        for s in chosen:
            if union & s:
                ok = False
                break
            union |= s
        if ok and union == want:
            return True
    return False


def x3c_gadget(x: X3cInstance) -> tuple[GameDef, Fraction]:
    """Element agents weigh 1, set agents weigh 3.

    A set agent earns 2 per unit paired with an incident element, or 5 going
    it alone with all 3 units; an exact cover exists iff the optimal structure
    reaches the returned threshold 5t + |A|/3.
    """
    na = x.n_elements
    t = len(x.subsets)
    n = na + t
    weights = tuple([1] * na + [3] * t)
    entries = []
    edges = []
    for j, s in enumerate(x.subsets):
        agent = na + j
        entries.append(((agent,), (3,), Fraction(5)))
        for e in sorted(s):
            entries.append(((e, agent), (1, 1), Fraction(2)))
            edges.append((e, agent))
    cf = make_charfun(n, 2, entries)
    g = GameDef(
        n=n,
        weights=weights,
        charfun=cf,
        interaction=InteractionGraph.from_pairs(n, edges),
    )
    threshold = Fraction(5 * t) + Fraction(na, 3)
    return g, threshold


def independent_set_gadget(
    graph: InteractionGraph, m: int, eps: Fraction = Fraction(1, 10)
) -> tuple[GameDef, Fraction]:
    """Independent-set-of-size-m as a threshold question for the oracle.

    A hub agent of weight 2 is wired to every vertex agent (weight 1).  One
    hub unit plus an independent set of size at least m is worth 1; one hub
    unit plus any vertex cover S (the empty cover included, i.e. the hub
    alone) is worth eps/(|S|+1).  The optimum clears 1 + eps/(n-m+1) iff an
    independent set of size m exists: take it together with its complement,
    which is a cover of size at most n-m.  The game is not 2-OCF, so only the
    brute-force oracle consumes it.

    Sound for eps up to about 1/2 (two cover coalitions must not reach the
    threshold on their own); the default 1/10 stays well clear.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ContractViolation("eps must be in (0, 1)")
    n = graph.n
    if n > 16:
        raise ContractViolation("gadget enumerates all vertex subsets; needs n <= 16")
    if not 1 <= m <= n:
        raise ContractViolation(f"m must be within 1..{n}")
    hub = n
    entries = []
    edges = [(i, hub) for i in range(n)]
    for mask in range(1 << n):
        verts = frozenset(i for i in range(n) if mask >> i & 1)
        independent = all(
            not graph.has_edge(a, b) for a in verts for b in verts if a < b
        )
        cover = all(a in verts or b in verts for a, b in graph.simple_edges())
        value = ZERO
        if independent and len(verts) >= m:
            value = ONE
        if cover:
            value = max(value, eps / (len(verts) + 1))
        if value > 0:
            sup = tuple(sorted(verts) + [hub])
            entries.append((sup, tuple([1] * len(sup)), value))
    cf = make_charfun(n + 1, n + 1, entries)
    g = GameDef(
        n=n + 1,
        weights=tuple([1] * n + [2]),
        charfun=cf,
        interaction=InteractionGraph.from_pairs(n + 1, edges),
    )
    threshold = ONE + eps / (n - m + 1)
    return g, threshold


class SetCoverArbitration(ArbitrationRule):
    """The bespoke rule of the set-cover deviation gadget.

    When agent 0 deviates, the pair coalitions pay nothing, and the big
    coalition pays agent 0's recorded share iff it is untouched and the pair
    coalitions agent 0 kept intact index a covering collection.  The payment
    from the big coalition thus depends on withdrawals from *other*
    coalitions: deliberately non-local.  Other deviating sets see the refined
    rule.
    """

    name = "set-cover-gadget"

    def __init__(self, elements: frozenset[int], subsets: tuple[frozenset[int], ...]):
        self.elements = elements
        self.subsets = subsets

    def deviation_payoffs(self, game, outcome, deviators, dev):
        if deviators != frozenset({0}):
            return REFINED.deviation_payoffs(game, outcome, deviators, dev)
        t = len(self.subsets)
        big = t  # structure layout: t pair coalitions then the big one
        out = {}
        for j in range(t):
            out[j] = ZERO
        touched_big = any(dev.withdrawal(big, game.n))
        covered: set[int] = set()
        for j in range(t):
            if not any(dev.withdrawal(j, game.n)):
                covered |= self.subsets[j]
        if not touched_big and covered >= self.elements:
            out[big] = outcome.imputation[big][0]
        else:
            out[big] = ZERO
        return out


def set_cover_arbitration_gadget(
    elements: frozenset[int],
    subsets: tuple[frozenset[int], ...],
    cover_size: int,
) -> tuple[GameDef, Outcome, SetCoverArbitration, Fraction]:
    """Two agents, t pair coalitions and one big one.

    Agent 0 wants to pull units out of pair coalitions to work alone (1 per
    unit) while the coalitions it keeps still cover the ground set, or it
    forfeits its half of the big coalition.  The best deviation value reaches
    5(t+2) + t - cover_size iff a cover of at most ``cover_size`` sets exists.
    """
    t = len(subsets)
    if t == 0:
        raise ContractViolation("need at least one subset")
    seen = set()
    for s in subsets:
        if not s or not s <= elements:
            raise ContractViolation(f"subset {sorted(s)} not inside the element set")
        if s in seen:
            raise ContractViolation(f"duplicate subset {sorted(s)}")
        seen.add(s)
    w = t + 2
    entries = []
    for xunits in range(1, w + 1):
        entries.append(((0,), (xunits,), Fraction(xunits)))
        entries.append(((1,), (xunits,), Fraction(xunits)))
    entries.append(((0, 1), (1, 1), Fraction(2)))
    entries.append(((0, 1), (2, 2), Fraction(10 * w)))
    cf = make_charfun(2, 2, entries)
    g = GameDef(
        n=2,
        weights=(w, w),
        charfun=cf,
        interaction=InteractionGraph.from_pairs(2, [(0, 1)]),
    )
    structure = tuple([(1, 1)] * t + [(2, 2)])
    imputation = tuple(
        [(ZERO, Fraction(2))] * t + [(Fraction(5 * w), Fraction(5 * w))]
    )
    outcome = Outcome(structure=structure, imputation=imputation)
    arb = SetCoverArbitration(elements=frozenset(elements), subsets=tuple(subsets))
    threshold = Fraction(5 * w + t - cover_size)
    return g, outcome, arb, threshold
