"""The (max,+) kernel behind every dynamic-programming table, and cover tables.

Every pseudo-polynomial solver here takes a best value over resource vectors
and adds the values of parts.  Two primitives do that work; both take tables
keyed by resource tuples, in which ``None`` marks an unreachable state, and
work on any ordered additive values (every solver passes scaled ``int``s;
the tests pass ``Fraction``s too):

* ``closure`` - the unbounded atom knapsack
  ``best(r) = max(base(r), max over atoms a <= r of value(a) + best(r - a))``;
  ``unwind`` walks its picks back into one optimal multiset.  Used by
  ``CoverTable``, ``single_cover`` and the atom layers of the bag engine in
  :mod:`ocf.treewidth`; ``single_cover`` only by :mod:`ocf.core`, once per
  agent and game, and every solver reads that table.
* ``convolve`` - the bounded (max,+) convolution of a box table with a table
  over some of its axes; ``chain`` runs it layer by layer, and ``unchain``
  walks a chain's picks back into one choice per layer.  Chains build the
  bag engine's keep rows and the withdrawal DP of ``arbval_local`` in
  :mod:`ocf.tree`; the engine's child merges are single layers, read back
  by ``unchain`` too.  ``line_chain`` is ``chain`` on one axis, over plain
  lists indexed by units, with ``convolve``'s rules, and ``line_unchain``
  reads it back: the feeder tables ``KeepTable`` (``AlphaTable`` is one
  over several edges) and ``VBarTable`` in :mod:`ocf.treewidth` run on it.

Both sweep the box below some caps once per atom or entry: every state
``r`` that the shift (the atom, or the entry placed on its axes) fits into,
beside ``r - shift``.  A ``Box`` holds one canonical tuple per state and
keeps each sweep it is asked for as two tuples of those states, so a table
keyed by ``Box.keys`` answers every lookup of a repeated sweep by identity,
with no fresh tuple built.  Each object that builds tables owns its boxes
and drops them when it is done: the bag engine keeps one per distinct caps
of its sets D, and every ``chain`` (``arbval_local``) one for its layers.
A lone ``closure`` or ``convolve`` may take plain caps instead
(``CoverTable``, ``single_cover``); it sweeps each shift once, on fresh
tuples.  A merge whose other operand is the zero vector alone is ``prev``
plus a constant and sweeps nothing.

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
(``_denominator``) and each lookup divides back into a ``Fraction``.  Every
other table does the same at a scale of its own (``_scaled``), and a table
that merges tables of several scales lifts each to their lcm (``_lift``).
Scaling by a positive constant keeps every comparison, so values and picks
are those of the ``Fraction`` table.  This module imports nothing from the
package, so :mod:`ocf.core` can build on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Iterable

Coalition = tuple[int, ...]


_NO_PAIRS: tuple[tuple, tuple] = ((), ())


def _pairs(caps: tuple[int, ...], shift: tuple[int, ...]) -> tuple[Iterable, Iterable]:
    """The states ``r >= shift`` below ``caps`` and ``r - shift`` beside
    them, as two fresh iterators in product order; both empty when the shift
    exceeds the caps."""
    if any(s > c for s, c in zip(shift, caps)):
        return _NO_PAIRS
    hi = product(*[range(s, c + 1) for s, c in zip(shift, caps)])
    lo = product(*[range(c - s + 1) for s, c in zip(shift, caps)])
    return hi, lo


class Box:
    """The states below ``caps``, one canonical tuple each, and a memo of
    the sweeps over them.

    ``keys`` holds every state in product order.  ``pairs(shift)`` is
    ``_pairs`` mapped onto those canonical tuples, kept for the next sweep
    with the same shift.  A table keyed by ``keys`` hands its own key objects
    to every lookup of such a sweep, so each lookup ends at an identity test
    instead of comparing tuples.  A box belongs to the object that builds
    tables on it and is dropped with it; nothing is cached at module level.
    """

    def __init__(self, caps: Iterable[int]):
        self.caps = tuple(caps)
        self.keys = tuple(product(*[range(c + 1) for c in self.caps]))
        self._canon = dict(zip(self.keys, self.keys))
        self._pairs: dict[tuple[int, ...], tuple[tuple, tuple]] = {}

    def pairs(self, shift: tuple[int, ...]) -> tuple[tuple, tuple]:
        got = self._pairs.get(shift)
        if got is None:
            canon = self._canon.__getitem__
            got = tuple(tuple(map(canon, side)) for side in _pairs(self.caps, shift))
            self._pairs[shift] = got
        return got


def _sweeper(box: Box | tuple[int, ...]):
    """The caps and the sweep of ``box``: ``box.pairs`` for a ``Box``, and
    ``_pairs`` afresh for plain caps.  A lone kernel call sweeps each shift
    once, and mapping fresh tuples onto canonical ones costs more than one
    sweep's lookups save."""
    if isinstance(box, Box):
        return box.caps, box.pairs
    caps = tuple(box)
    return caps, partial(_pairs, caps)


def closure(box: Box | tuple[int, ...], atoms: list[tuple[tuple[int, ...], object]], base: dict):
    """Unbounded atom knapsack over ``box``: a ``Box``, or its caps.

    ``atoms`` are nonzero (vector, value) pairs; atoms exceeding the caps are
    unusable.  Returns ``(best, picks)``: ``picks[r]`` is the index of the
    last atom of one optimal multiset for ``r``, or None when ``best[r]`` is
    ``base[r]``.  Walking ``r -> r - atoms[picks[r]]`` rebuilds ``best[r]``.
    """
    _, sweep = _sweeper(box)
    best = dict(base)
    picks: dict = dict.fromkeys(best)
    for idx, (a, v) in enumerate(atoms):
        # r runs over the states a fits into, rest = r - a alongside it; both
        # in product order, so best(rest) already counts this atom
        for r, rest in zip(*sweep(a)):
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


def convolve(box: Box | tuple[int, ...], prev: dict, axes: Iterable[int], other: dict):
    """Bounded (max,+) convolution over ``box``: a ``Box``, or its caps.

    ``out(r) = max over z <= r[axes] of prev(r - z on axes) + other(z)``,
    where ``other`` is keyed by tuples over ``axes``; its entries beyond the
    caps never fit.  Returns ``(out, picks)``: ``picks[r]`` is the first ``z``
    in ``other``'s order that achieves ``out[r]``, None when nothing does.
    Both are keyed like ``prev``, which holds every state of the box in
    product order.

    When ``prev`` is non-decreasing on every axis (None lowest), an entry
    ``z`` of ``other`` never beats one at some ``z' <= z`` worth at least as
    much, so ``_frontier(other)`` gives the same ``out``; its picks are then
    the first non-dominated ``z`` that achieves ``out[r]``.  Only values are
    kept: a witness read from the picks may change.
    """
    if len(other) == 1:
        ((z, v),) = other.items()
        if v is not None and not any(z):
            # the zero vector alone: prev plus a constant, nothing to sweep
            out = dict(prev) if v == 0 else {r: p if p is None else p + v for r, p in prev.items()}
            return out, {r: p if p is None else z for r, p in prev.items()}
    caps, sweep = _sweeper(box)
    axes = tuple(axes)
    out: dict = dict.fromkeys(prev)
    picks: dict = dict.fromkeys(prev)
    for z, v in other.items():
        if v is None:
            continue
        shift = [0] * len(caps)
        for p, zz in zip(axes, z):
            shift[p] = zz
        for r, rest in zip(*sweep(tuple(shift))):
            prior = prev[rest]
            if prior is None:
                continue
            cand = prior + v
            cur = out[r]
            if cur is None or cand > cur:
                out[r] = cand
                picks[r] = z
    return out, picks


def chain(box: Box | tuple[int, ...], table: dict, layers: Iterable[tuple[Iterable[int], dict]]):
    """``convolve`` ``table`` with each ``(axes, other)`` of ``layers`` in turn,
    all over one ``Box`` (made here from plain caps): the last table, and a
    trail of each layer's axes and picks."""
    if not isinstance(box, Box):
        box = Box(box)
    trail = []
    for axes, other in layers:
        table, picks = convolve(box, table, axes, other)
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


def line_chain(table: list, layers: Iterable[list]) -> tuple[list, list[list]]:
    """``chain`` on one axis, over plain lists indexed by units: ``table``
    holds every state up to its cap, ``len(table) - 1``, and each layer is
    the row ``other`` of one ``convolve``, indexed by ``z``.  Same rules:
    None is unreachable, entries beyond the cap never fit, the first best
    ``z`` wins, and a row whose only entry is at ``z = 0`` adds a constant.
    Returns the last table and a trail of each layer's picks, a list per
    layer with None where nothing reaches the state."""
    top = len(table)
    trail = []
    for other in layers:
        out: list = [None] * top
        picks: list = [None] * top
        for z, v in enumerate(other[:top]):
            if v is None:
                continue
            for r, prior in enumerate(table[: top - z], z):
                if prior is not None:
                    cand = prior + v
                    cur = out[r]
                    if cur is None or cand > cur:
                        out[r] = cand
                        picks[r] = z
        table = out
        trail.append(picks)
    return table, trail


def line_unchain(trail: list[list], r: int) -> tuple[list[int], int]:
    """Walk ``line_chain``'s trail back from a reachable state ``r``: each
    layer's pick, in layer order, and the units left to the first table."""
    picks = []
    for at in reversed(trail):
        z = at[r]
        picks.append(z)
        r -= z
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


def _lift(row: list, m: int) -> list:
    """An ``int`` row scaled by ``m``, from its own scale to a multiple of
    it: one multiply per entry, None kept; the row itself when ``m`` is 1."""
    return row if m == 1 else [None if v is None else v * m for v in row]


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


def single_cover(atoms: list[tuple[tuple[int], int]], cap: int) -> tuple[list[int], dict]:
    """1-d cover: best value of splitting w units of one agent, w = 0..cap.

    ``atoms`` are ((units,), value) pairs with units >= 1 and value > 0; the
    game passes its values scaled to ``int``s, and the base is the ``int``
    0.  Returns the value table as a list and ``closure``'s picks, keyed by
    (w,), which ``unwind`` walks back into one optimal split.  The table
    for a smaller cap is a prefix of this one, picks included.
    """
    best, picks = closure((cap,), atoms, {(w,): 0 for w in range(cap + 1)})
    return list(best.values()), picks
