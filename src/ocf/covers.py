"""The (max,+) kernel behind every dynamic-programming table, and cover tables.

Every pseudo-polynomial solver here takes a best value over resource vectors
and adds the values of parts.  Two primitives do that work; both take tables
keyed by resource tuples, in which ``None`` marks an unreachable state, and
work on any ordered additive values (scaled ``int``s in the bag engine and
``CoverTable``, ``Fraction`` elsewhere):

* ``closure`` - the unbounded atom knapsack
  ``best(r) = max(base(r), max over atoms a <= r of value(a) + best(r - a))``;
  ``unwind`` walks its picks back into one optimal multiset.  Used by
  ``CoverTable``, ``single_cover`` and the atom layers of the bag engine in
  :mod:`ocf.treewidth`; ``single_cover`` only by :mod:`ocf.core`, once per
  agent and game, and every solver reads that table.
* ``convolve`` - the bounded (max,+) convolution of a box table with a table
  over some of its axes; ``chain`` runs it layer by layer, and ``unchain``
  walks a chain's picks back into one choice per layer.  Chains build the
  bag engine's keep rows, its feeder tables ``KeepTable`` (``AlphaTable``
  is one over several edges) and ``VBarTable`` in :mod:`ocf.treewidth`,
  and the withdrawal DP of ``arbval_local`` in :mod:`ocf.tree`; the
  engine's child merges are single layers, read back by ``unchain`` too.

``_frontier`` keeps the entries of a table that no entry at smaller or equal
resources matches in value (the dominance rule of knapsack DPs).  Against a
table that is non-decreasing in resources, as every table the bag engine
merges into is, only those entries can win a ``convolve`` or be worth an
atom in ``closure``, so the engine reduces each operand it merges in (keep
rows, pair atoms, finished child tables) to them once, when it builds it.

The cover of a resource vector is the best total value of a coalition
multiset using at most those resources.  Because unlisted coalitions are worth
zero, only the positive-valued stored coalitions ("atoms") ever matter, and
leftover resources can always idle in worthless filler coalitions, so the
cover is ``closure`` over a base of zeros.  ``CoverTable`` runs it on
``int``s: the atom values are scaled once by the lcm of their denominators
(``_denominator``, shared with the bag engine) and each lookup divides back
into a ``Fraction``.  Scaling by a positive constant keeps every comparison,
so values and picks are those of the ``Fraction`` table.  This module
imports nothing from the package, so :mod:`ocf.core` can build on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable

Coalition = tuple[int, ...]

ZERO = Fraction(0)


def closure(caps: tuple[int, ...], atoms: list[tuple[tuple[int, ...], object]], base: dict):
    """Unbounded atom knapsack over the box below ``caps``.

    ``atoms`` are nonzero (vector, value) pairs; atoms exceeding the caps are
    unusable.  Returns ``(best, picks)``: ``picks[r]`` is the index of the
    last atom of one optimal multiset for ``r``, or None when ``best[r]`` is
    ``base[r]``.  Walking ``r -> r - atoms[picks[r]]`` rebuilds ``best[r]``.
    """
    best = dict(base)
    picks: dict = dict.fromkeys(best)
    for idx, (a, v) in enumerate(atoms):
        if any(x > c for x, c in zip(a, caps)):
            continue
        # r runs over the states a fits into, rest = r - a alongside it; both
        # in lexicographic order, so best(rest) already counts this atom
        hi = product(*[range(x, c + 1) for x, c in zip(a, caps)])
        lo = product(*[range(c - x + 1) for x, c in zip(a, caps)])
        for r, rest in zip(hi, lo):
            prior = best[rest]
            if prior is None:
                continue
            cand = prior + v
            cur = best[r]
            if cur is None or cand > cur:
                best[r] = cand
                picks[r] = idx
    return best, picks


def unwind(atoms: list, picks: dict, r: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """Walk ``closure``'s picks back from ``r``: the atom indices of one
    optimal multiset and the state left to the base."""
    out = []
    while (pick := picks[r]) is not None:
        out.append(pick)
        r = tuple(y - x for x, y in zip(atoms[pick][0], r))
    return out, r


def convolve(caps: tuple[int, ...], prev: dict, axes: Iterable[int], other: dict):
    """Bounded (max,+) convolution over the box below ``caps``.

    ``out(r) = max over z <= r[axes] of prev(r - z on axes) + other(z)``,
    where ``other`` is keyed by tuples over ``axes``; its entries beyond the
    caps never fit.  Returns ``(out, picks)``: ``picks[r]`` is the first ``z``
    in ``other``'s order that achieves ``out[r]``, None when nothing does.

    When ``prev`` is non-decreasing on every axis (None lowest), an entry
    ``z`` of ``other`` never beats one at some ``z' <= z`` worth at least as
    much, so ``_frontier(other)`` gives the same ``out``; its picks are then
    the first non-dominated ``z`` that achieves ``out[r]``.  Only values are
    kept: a witness read from the picks may change.
    """
    axes = tuple(axes)
    out: dict = dict.fromkeys(product(*[range(c + 1) for c in caps]))
    picks: dict = dict.fromkeys(out)
    for z, v in other.items():
        if v is None:
            continue
        shift = [0] * len(caps)
        for p, zz in zip(axes, z):
            shift[p] = zz
        if any(s > c for s, c in zip(shift, caps)):
            continue
        hi = product(*[range(s, c + 1) for s, c in zip(shift, caps)])
        lo = product(*[range(c - s + 1) for s, c in zip(shift, caps)])
        for r, rest in zip(hi, lo):
            prior = prev[rest]
            if prior is None:
                continue
            cand = prior + v
            cur = out[r]
            if cur is None or cand > cur:
                out[r] = cand
                picks[r] = z
    return out, picks


def chain(caps: tuple[int, ...], table: dict, layers: Iterable[tuple[Iterable[int], dict]]):
    """``convolve`` ``table`` with each ``(axes, other)`` of ``layers`` in turn:
    the last table, and a trail of each layer's axes and picks."""
    trail = []
    for axes, other in layers:
        table, picks = convolve(caps, table, axes, other)
        trail.append((axes, picks))
    return table, trail


def unchain(trail: list, r: tuple[int, ...]) -> tuple[list, tuple[int, ...]]:
    """Walk ``chain``'s trail back from a reachable state ``r``: each layer's
    pick, in layer order, and the state left to the first table."""
    picks = []
    for axes, at in reversed(trail):
        z = at[r]
        picks.append(z)
        rest = list(r)
        for p, zz in zip(axes, z):
            rest[p] -= zz
        r = tuple(rest)
    picks.reverse()
    return picks, r


def _frontier(table: dict) -> dict:
    """The entries of ``table`` that no other entry dominates, in key order.

    ``z`` is dominated when some ``z' <= z``, ``z' != z``, is worth at least
    as much; None entries are dropped.  One prefix-max sweep in ``product``
    order over the grid of the coordinates the keys use on each axis, so the
    best value at or below each lower grid neighbour of ``z`` is known before
    ``z`` reads it; grid points missing from ``table`` count as None.  ``z``
    is kept when its value is strictly above the best of those neighbours.
    """
    grid = [sorted(set(axis)) for axis in zip(*table)]
    lows = [axis[0] for axis in grid]
    strides = [math.prod(map(len, grid[k + 1 :])) for k in range(len(grid))]
    best: list = []  # per grid point in product order: best value at or below it
    out = {}
    for z in product(*grid):
        below = None
        for x, low, s in zip(z, lows, strides):
            if x > low:
                b = best[len(best) - s]
                if b is not None and (below is None or b > below):
                    below = b
        v = table.get(z)
        if v is not None and (below is None or v > below):
            out[z] = below = v
        best.append(below)
    return out


def _denominator(*groups: Iterable[Fraction | None]) -> int:
    """Least common multiple of the denominators of every value; None skipped."""
    return math.lcm(*(v.denominator for vs in groups for v in vs if v is not None))


def _scaled(v: Fraction | None, d: int) -> int | None:
    """``v`` times ``d`` as an int; ``d`` must be a multiple of its denominator."""
    return None if v is None else v.numerator * (d // v.denominator)


class CoverTable:
    """Dense cover table over all resource vectors below ``caps``.

    ``atoms`` are (vector, value) pairs in the same (local) coordinate system
    as ``caps``; atoms exceeding the caps are unusable and dropped.  State
    count is prod(caps_i + 1); the caller is responsible for budget checks.
    The table runs on ``int``s: every atom value is scaled once by ``scale``,
    the lcm of their denominators, and ``value`` divides it back out.
    """

    def __init__(self, atoms: list[tuple[Coalition, Fraction]], caps: Coalition):
        self.caps = tuple(caps)
        self.atoms = [(a, v) for a, v in atoms if all(x <= c for x, c in zip(a, caps))]
        self.scale = _denominator(v for _, v in self.atoms)
        scaled = [(a, _scaled(v, self.scale)) for a, v in self.atoms]
        base = dict.fromkeys(product(*[range(c + 1) for c in self.caps]), 0)
        self.value_at, self.choice = closure(self.caps, scaled, base)

    def value(self, r: Coalition) -> Fraction:
        return Fraction(self.value_at[tuple(r)], self.scale)

    def witness_atoms(self, r: Coalition) -> list[Coalition]:
        """Atoms of one optimal multiset for ``r`` (resources may be left over)."""
        picked, _ = unwind(self.atoms, self.choice, tuple(r))
        return [self.atoms[k][0] for k in picked]


def single_cover(
    atoms: list[tuple[tuple[int], Fraction]], cap: int
) -> tuple[list[Fraction], dict]:
    """1-d cover: best value of splitting w units of one agent, w = 0..cap.

    ``atoms`` are ((units,), value) pairs with units >= 1 and value > 0.
    Returns the value table as a list and ``closure``'s picks, keyed by
    (w,), which ``unwind`` walks back into one optimal split.  The table
    for a smaller cap is a prefix of this one, picks included.
    """
    best, picks = closure((cap,), atoms, {(w,): ZERO for w in range(cap + 1)})
    return list(best.values()), picks
