"""The (max,+) kernel behind every dynamic-programming table, and cover tables.

Every pseudo-polynomial solver here takes a best value over resource vectors
and adds the values of parts.  One sweep, ``merge``, does that work: each
move ``(shift, region, value, label)`` raises every state ``r`` of its
region to ``prev[r - shift] + value`` where that is higher, on tables keyed
by resource tuples in which ``None`` marks an unreachable state, over any
ordered additive values (every solver passes scaled ``int``s; the tests pass
``Fraction``s too).  The bag engine of :mod:`ocf.treewidth` calls it
directly; the rest call it through:

* ``closure`` - the unbounded atom knapsack
  ``best(r) = max(base(r), max over atoms a <= r of value(a) + best(r - a))``,
  a ``merge`` of one move per atom into its own table; ``unwind`` walks its
  picks back into one optimal multiset.  Used by ``CoverTable`` and
  ``single_cover``; ``single_cover`` only by :mod:`ocf.core`, once per agent
  and game, and every solver reads that table.
* ``convolve`` - the bounded (max,+) convolution of a box table with a table
  over some of its axes, a ``merge`` of one move per entry; ``chain`` runs it
  layer by layer for the withdrawal DP of ``arbval_local`` in :mod:`ocf.tree`,
  and ``unchain`` walks a chain's picks back into one choice per layer.
  ``line_chain`` is ``chain`` on one axis, over plain lists indexed by units,
  with ``convolve``'s rules, and ``line_unchain`` reads it back: the feeder
  tables ``KeepTable`` (``AlphaTable`` is one over several edges) and
  ``VBarTable`` in :mod:`ocf.treewidth` run on it.

A move sweeps a region of the box below some caps: the values each axis of
``r`` may take, none below the shift.  By default that is every state the
shift fits into; the bag engine asks for less.  Its boxes give each agent an
out state, 0, below its member levels, so a move may pin an axis to out, take
levels from the shift (or one more) up, pin one level, or keep out and the
cap alone (the states a bag's projection reads).  A ``Box`` holds one
canonical tuple per state and keeps each sweep it is asked for, per shift
and region, as two tuples of those states, so a table keyed by ``Box.keys``
answers every lookup of a repeated sweep by identity, with no fresh tuple
built.  Each object that builds tables owns its boxes and drops them when it
is done: the bag engine keeps one per distinct caps of its bags, and every
``chain`` (``arbval_local``) one for its layers.  A lone ``closure`` or
``convolve`` may take plain caps instead (``CoverTable``, ``single_cover``);
it sweeps each shift once, on fresh tuples.

``_frontier`` keeps the entries of a table that no entry at smaller or equal
resources matches in value (the dominance rule of knapsack DPs).  Against a
table that is non-decreasing in resources, only those entries can win a
``convolve`` or be worth an atom in ``closure``.  Its out-state rule serves
the bag engine, whose tables are non-decreasing only in the member levels
of a fixed out pattern: an out state is no lower neighbour of a member
level, so an entry is dominated only by one with the same axes out.  The
engine reduces each operand it merges in (keep rows, pair atoms, finished
child tables) to its frontier once, when it builds it.

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


def _pairs(
    caps: tuple[int, ...], shift: tuple[int, ...], region: tuple | None = None
) -> tuple[Iterable, Iterable]:
    """The states ``r`` of ``region`` and ``r - shift`` beside them, as two
    fresh iterators in product order.  ``region`` gives each axis the values
    ``r`` may take, none below the shift; by default every state ``r >= shift``
    below ``caps``, and nothing once the shift passes the caps."""
    if region is None:
        region = [range(s, c + 1) for s, c in zip(shift, caps)]
    return product(*region), product(*[[x - s for x in axis] for axis, s in zip(region, shift)])


class Box:
    """The states below ``caps``, one canonical tuple each, and a memo of
    the sweeps over them.

    ``keys`` holds every state in product order.  ``pairs(shift, region)`` is
    ``_pairs`` mapped onto those canonical tuples, kept for the next sweep
    with the same shift and region.  A table keyed by ``keys`` hands its own
    key objects to every lookup of such a sweep, so each lookup ends at an
    identity test instead of comparing tuples.  A box belongs to the object
    that builds tables on it and is dropped with it; nothing is cached at
    module level.
    """

    def __init__(self, caps: Iterable[int]):
        self.caps = tuple(caps)
        self.keys = tuple(product(*[range(c + 1) for c in self.caps]))
        self._canon = dict(zip(self.keys, self.keys))
        self._pairs: dict[tuple, tuple[tuple, tuple]] = {}

    def pairs(self, shift: tuple[int, ...], region: tuple | None = None) -> tuple[tuple, tuple]:
        got = self._pairs.get((shift, region))
        if got is None:
            canon = self._canon.__getitem__
            hi, lo = _pairs(self.caps, shift, region)
            hi = tuple(map(canon, hi))
            got = self._pairs[(shift, region)] = (hi, tuple(map(canon, lo)) if any(shift) else hi)
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


def merge(sweep, prev: dict, moves: Iterable[tuple], out: dict, picks: dict) -> None:
    """The kernel's one (max,+) sweep, in place.

    Each move is ``(shift, region, value, label)``.  Over the states ``r``
    that ``sweep(shift, region)`` pairs with ``r - shift`` (``Box.pairs``, or
    ``_pairs`` on plain caps), ``out[r]`` rises to ``prev[r - shift] + value``
    where that is higher, and ``picks[r]`` becomes the move's label; None in
    ``prev`` or ``out`` is unreachable.  Moves run in order and a tie keeps
    the earlier label.  ``prev`` may be ``out`` itself: sweeps run in product
    order, so a state reads its lower neighbour already raised by the same
    move (the unbounded knapsack of ``closure``).
    """
    for shift, region, v, label in moves:
        for r, rest in zip(*sweep(shift, region)):
            prior = prev[rest]
            if prior is None:
                continue
            cand = prior + v
            cur = out[r]
            if cur is None or cand > cur:
                out[r] = cand
                picks[r] = label


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
    merge(sweep, best, [(a, None, v, idx) for idx, (a, v) in enumerate(atoms)], best, picks)
    return best, picks


def unwind(atoms: list, picks: dict, r: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """Walk ``closure``'s picks back from ``r``: the atom indices of one
    optimal multiset and the state left to the base.  A state missing from
    ``picks`` (a ``merge`` of atom moves, labelled by index) counts as None."""
    out = []
    while (pick := picks.get(r)) is not None:
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
    caps, sweep = _sweeper(box)
    axes = tuple(axes)
    moves = []
    for z, v in other.items():
        at = dict(zip(axes, z))  # the shift: z on its axes, 0 elsewhere
        if v is not None:
            moves.append((tuple(at.get(p, 0) for p in range(len(caps))), None, v, z))
    out, picks = dict.fromkeys(prev), dict.fromkeys(prev)
    merge(sweep, prev, moves, out, picks)
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


def _frontier(table: dict, out: bool = False) -> dict:
    """The entries of ``table`` that no other entry dominates, in key order.

    ``z`` is dominated when some ``z' <= z``, ``z' != z``, is worth at least
    as much; None entries are dropped.  One prefix-max sweep in ``product``
    order over the grid of the coordinates the keys use on each axis, so the
    best value at or below each lower grid neighbour of ``z`` is known before
    ``z`` reads it; grid points missing from ``table`` count as None.  ``z``
    is kept when its value is strictly above the best of those neighbours.

    With ``out``, coordinate 0 of every axis is an out state below the member
    levels 1, 2, ...: it is no lower neighbour of a member level, so ``z'``
    dominates ``z`` only with the same axes out, and a table that is
    non-decreasing within each out pattern keeps every value it merges.
    """
    if len(next(iter(table), ())) == 1:  # one axis: a running max over the member levels
        found, top = {}, None
        for z in sorted(table):
            v = table[z]
            if v is not None and ((out and not z[0]) or top is None or v > top):
                found[z] = v
                top = top if out and not z[0] else v
        return found
    grid = [sorted(set(axis)) for axis in zip(*table)]
    # the lowest coordinate of each axis that has no lower neighbour among members
    lows = [axis[1] if out and axis[0] == 0 and len(axis) > 1 else axis[0] for axis in grid]
    strides = [math.prod(map(len, grid[k + 1 :])) for k in range(len(grid))]
    best: list = []  # per grid point in product order: best value at or below it
    found = {}
    for z in product(*grid):
        below = None
        for x, low, s in zip(z, lows, strides):
            if x > low:
                b = best[len(best) - s]
                if b is not None and (below is None or b > below):
                    below = b
        v = table.get(z)
        if v is not None and (below is None or v > below):
            found[z] = below = v
        best.append(below)
    return found


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
