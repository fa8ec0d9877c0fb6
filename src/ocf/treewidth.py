"""Tree-decomposition solvers for 2-OCF games on arbitrary interaction graphs.

The tree algorithms generalize to any graph once a tree decomposition is in
hand: per-bag tables indexed by resource vectors over the bag-parent
separator replace the per-agent weight tables, and runtime grows with
(W+1)^(width+1) instead of W.  Exactness never depends on the decomposition
being width-optimal, only speed does, so decompositions may come from a file
or from ``_decomposition``: every public entry's one check of the game and
the decomposition, which validates a caller's once and otherwise builds
``forest_decomposition`` on a forest and min-fill on any other graph.  The
tree lane of :mod:`ocf.tree` is these entries on a forest.

One engine, ``_BagEngine``, answers OptVal, ArbVal and CheckCore, with one
table per bag.  CheckCore gives each bag agent an out state beside its
member levels, so the table holds every choice of deviators in the bag, the
empty set included; OptVal and ArbVal fix the set to every vertex.  One
walk back through the engine's tables reads off a witness: the members, the
pair atoms picked, each member's solo level, and the units each member
keeps with each non-member neighbour.  One max-excess scan,
``_max_excess_bags``, turns that walk into the worst set's deviation and
post-deviation structure, as ``oracle._max_excess_scan`` does on the
oracle.  The empty set never beats the grand coalition N: an outcome is
efficient, so N keeping its structure has excess 0, and N answers where
the walk ends at the empty set.  CheckCore, max-excess and the cutting-plane loop of
Is-Stable (``cutting_plane`` in :mod:`ocf.stability`) all read it, so the
loop reads its cuts without solving ArbVal again.

The feeder tables of the engine's solo and keep rows live here too:
``SingleTable`` (an agent alone, a view of the game's solo cover),
``KeepTable`` (a deviator keeping units on one edge), ``AlphaTable`` (a
``KeepTable`` over all its edges to non-deviators: one chain over their
coalitions) and ``VBarTable`` (both), as do the outcome check
(``check_outcome_shape``: ``core.require_outcome``, the outcome check of
every lane, then a pairwise-shaped structure, recorded on the outcome once
both pass; no cutting-plane round checks the LP's own candidate) and
``forest_decomposition``, the width-1 decomposition read off one
breadth-first search (``core.reach``) per component.

Charging discipline: every agent's solo work is priced exactly once, at the
*topmost* bag containing the agent; every edge's pair coalitions, and under
CheckCore the units a member keeps on it with a non-member, are priced at
the topmost bag containing both ends.  (ArbVal folds a deviator's keeps with
outside neighbours into its solo row.)  Resources flow root-to-leaves
through separator quotas, so anything an agent owns is available at its home
bag and below.

Arithmetic: every table here holds Python ``int``s, which is exact.  The
game holds its solo covers and pair atoms at its own ``charfun.scale``; a
keep or alpha table scales the payments it reads by the lcm of their
denominators, taken once the rule has paid, since a rule may pay any
rational; a value-bar table works at the lcm of its two tables' scales.
Each engine call takes its rows with their scales and lifts every row and
atom to the lcm D of those scales and the game's, one integer multiply per
entry, then runs the (max,+) kernel of :mod:`ocf.covers` (``merge`` for
the keep rows, the atoms priced at a bag and the child merges, each over a
region of the bag's box).  Values are divided back into ``Fraction`` at the
API: ``KeepTable.value`` and the engine's ``value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .arbitration import (
    CoreViolation,
    Deviation,
    LocalArbitrationRule,
    require_local,
    withdrawal_options,
)
from .core import (
    ZERO,
    Coalition,
    CoalitionStructure,
    ContractViolation,
    GameDef,
    Imputation,
    InteractionGraph,
    Outcome,
    _pad_fillers,
    _require_agents,
    mixed_indices,
    reach,
    require_outcome,
    support,
)
from .covers import (
    Box,
    _denominator,
    _frontier,
    _lift,
    _scaled,
    line_chain,
    line_unchain,
    merge,
    unwind,
)
from .stability import cutting_plane


class UnsupportedGameError(ValueError):
    """The game shape is outside this solver's contract."""


class UnsupportedOutcomeError(ValueError):
    """The outcome is not pairwise-shaped over the interaction graph."""


def require_pairwise_game(g: GameDef) -> InteractionGraph:
    """The game of every bag-DP lane: a 2-OCF game with an interaction graph."""
    if g.charfun.k > 2:
        raise UnsupportedGameError(f"solver requires a 2-OCF game, got k={g.charfun.k}")
    if g.interaction is None:
        raise UnsupportedGameError("solver requires an interaction graph")
    return g.interaction


def require_forest(g: GameDef) -> InteractionGraph:
    """The tree lane's game: a pairwise game whose interaction graph is a forest."""
    graph = require_pairwise_game(g)
    if not graph.is_forest():
        raise UnsupportedGameError(
            "interaction graph has a cycle; use the treewidth solver instead"
        )
    return graph


def check_outcome_shape(g: GameDef, o: Outcome) -> None:
    """``core.require_outcome``, the outcome check of every lane, then
    ``check_structure_shape`` on the outcome's cached supports.  A pass of
    both is recorded on the outcome beside the gate's own record, so asking
    again with the same game object costs one identity test."""
    if o.__dict__.get("_shape_for") is g:
        return
    require_outcome(g, o)
    _check_shape(g, o.supports)
    o.__dict__["_shape_for"] = g


def check_structure_shape(g: GameDef, cs: CoalitionStructure) -> None:
    """Every coalition has at most two contributors, joined by an edge."""
    _check_shape(g, map(support, cs))


def _check_shape(g: GameDef, supports: Iterable[frozenset[int]]) -> None:
    if g.interaction is None:
        raise UnsupportedGameError("solver requires an interaction graph")
    for j, sup in enumerate(supports):
        if len(sup) > 2:
            raise UnsupportedOutcomeError(
                f"coalition {j} has {len(sup)} contributors; tree solvers need <= 2"
            )
        if len(sup) == 2:
            a, b = sorted(sup)
            if not g.interaction.has_edge(a, b):
                raise UnsupportedOutcomeError(
                    f"coalition {j} spans non-edge ({a},{b})"
                )


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]
    root: int

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def _adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.bags))}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {i: sorted(nbrs) for i, nbrs in adj.items()}

    def rooted(self) -> tuple[dict[int, int | None], dict[int, list[int]], list[int]]:
        """(parent, children, postorder) over bag indices, from the root."""
        parent = reach(self._adjacency(), self.root)
        children: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        for v, p in parent.items():
            if p is not None:
                children[p].append(v)
        return parent, children, list(reversed(parent))


def validate_decomposition(
    g: InteractionGraph,
    t: TreeDecomposition,
    vertices: set[int] | None = None,
) -> list[str]:
    """All violations of the decomposition properties; empty means valid.

    ``vertices`` restricts the check to an induced subgraph (defaults to all
    agents): every such vertex must appear in a bag, every induced edge must
    fit inside a bag, and each vertex's bags must form a connected subtree.
    """
    problems = []
    verts = set(range(g.n)) if vertices is None else set(vertices)
    nb = len(t.bags)
    if nb == 0:
        return ["decomposition has no bags"]
    if not (0 <= t.root < nb):
        return [f"root {t.root} out of range"]
    for idx, bag in enumerate(t.bags):
        for i in bag:
            if not (0 <= i < g.n):
                problems.append(f"bag {idx} contains out-of-range agent {i}")
    for a, b in t.edges:
        if not (0 <= a < nb and 0 <= b < nb):
            problems.append(f"decomposition edge ({a},{b}) out of range")
    if problems:
        return problems
    # tree-ness
    if len(t.edges) != nb - 1:
        problems.append(f"{len(t.edges)} edges for {nb} bags; a tree needs {nb - 1}")
    adj = t._adjacency()
    if len(reach(adj, t.root)) != nb:
        problems.append("decomposition is not connected")
    if problems:
        return problems
    for i in verts:
        if not any(i in bag for bag in t.bags):
            problems.append(f"agent {i} appears in no bag")
    for a, b in g.simple_edges():
        if a in verts and b in verts:
            if not any(a in bag and b in bag for bag in t.bags):
                problems.append(f"interaction edge ({a},{b}) is covered by no bag")
    # running intersection: the bags holding each agent form a subtree
    for i in verts:
        holding = [idx for idx, bag in enumerate(t.bags) if i in bag]
        if not holding:
            continue
        hset = set(holding)
        if len(reach(adj, holding[0], hset)) != len(hset):
            problems.append(f"bags containing agent {i} are not connected")
    return problems


def heuristic_decomposition(g: InteractionGraph) -> TreeDecomposition:
    """Min-fill elimination ordering; valid but not necessarily width-optimal.

    Ties break toward the lowest vertex index, so the output is deterministic.
    """
    n = g.n
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in g.simple_edges():
        adj[a].add(b)
        adj[b].add(a)
    remaining = set(range(n))
    order: list[int] = []
    bag_of: dict[int, frozenset[int]] = {}
    while remaining:
        best_v = -1
        best_fill = None
        for v in sorted(remaining):
            nbrs = adj[v] & remaining
            fill = 0
            nl = sorted(nbrs)
            for i in range(len(nl)):
                for j in range(i + 1, len(nl)):
                    if nl[j] not in adj[nl[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_v = v
        v = best_v
        nbrs = adj[v] & remaining
        bag_of[v] = frozenset({v} | nbrs)
        nl = sorted(nbrs)
        for i in range(len(nl)):
            for j in range(i + 1, len(nl)):
                adj[nl[i]].add(nl[j])
                adj[nl[j]].add(nl[i])
        remaining.discard(v)
        order.append(v)
    pos = {v: k for k, v in enumerate(order)}
    bags = [bag_of[v] for v in order]
    edges = []
    for k, v in enumerate(order):
        later = [u for u in bags[k] if u != v and pos[u] > pos[v]]
        if later:
            target = min(later, key=lambda u: pos[u])
            edges.append((k, pos[target]))
        elif k < len(order) - 1:
            edges.append((k, k + 1))  # disconnected piece: chain it on
    return TreeDecomposition(bags=tuple(bags), edges=tuple(edges), root=len(bags) - 1)


def forest_decomposition(
    graph: InteractionGraph, vertices: set[int] | None = None
) -> TreeDecomposition:
    """Width-1 decomposition of a forest (or of the subgraph induced by
    ``vertices``), read off a breadth-first search of each component from
    its lowest vertex, without any elimination order.

    One bag per component root and one {parent, child} bag per edge, hung
    under the bag that introduced the parent; the roots of later components
    hang under the first root's bag.
    """
    verts = range(graph.n) if vertices is None else sorted(vertices)
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    intro: dict[int, int] = {}  # vertex -> the bag that introduced it
    for start in verts:
        if start in intro:
            continue
        if bags:
            edges.append((0, len(bags)))
        for v, p in reach(graph._adjacency, start, vertices).items():
            if p is not None:
                edges.append((intro[p], len(bags)))
            intro[v] = len(bags)
            bags.append(frozenset((v,) if p is None else (p, v)))
    return TreeDecomposition(bags=tuple(bags) or (frozenset(),), edges=tuple(edges), root=0)


def restrict_decomposition(t: TreeDecomposition, vertices: set[int]) -> TreeDecomposition:
    """Intersect every bag with ``vertices``; validity is preserved."""
    return TreeDecomposition(
        bags=tuple(frozenset(b & vertices) for b in t.bags),
        edges=t.edges,
        root=t.root,
    )


def _layout(t: TreeDecomposition, vertices: set[int], graph_edges: Iterable[tuple[int, int]]):
    """Bag layout of the engine: (children, postorder, sorted agents per bag,
    sorted parent separator per bag, topmost bag per vertex, the edges inside
    ``vertices`` grouped by their topmost bag)."""
    parent, children, post = t.rooted()
    agents = {X: tuple(sorted(bag)) for X, bag in enumerate(t.bags)}
    sep = {X: () if p is None else tuple(sorted(t.bags[X] & t.bags[p])) for X, p in parent.items()}
    depth: dict[int, int] = {}
    home_v: dict[int, int] = {}
    for X in reversed(post):  # breadth-first: every bag after its parent
        p = parent[X]
        depth[X] = 0 if p is None else depth[p] + 1
        for i in agents[X]:
            if i in vertices:
                home_v.setdefault(i, X)
    # the bags holding an edge are the overlap of its ends' subtrees, topped
    # by the deeper of the two ends' homes
    edges_at: dict[int, list[tuple[int, int]]] = {X: [] for X in agents}
    for a, b in graph_edges:
        if a in vertices and b in vertices:
            edges_at[max(home_v[a], home_v[b], key=depth.__getitem__)].append((a, b))
    return children, post, agents, sep, home_v, edges_at


class SingleTable:
    """v*_i(w): best split of w units of one agent into its own coalitions,
    as a view of the prefix up to ``cap`` of the game's solo cover: ``row``
    holds its values times ``scale``, the game's ``charfun.scale``."""

    def __init__(self, g: GameDef, i: int, cap: int):
        self.agent = i
        self.atoms, row, self.choice = g._solo_covers[i]
        self.row = row[: cap + 1]
        self.scale = g.charfun.scale
        self._vectors = g._solo_vectors

    def witness(self, w: int) -> list[Coalition]:
        picked, _ = unwind(self.atoms, self.choice, (w,))
        return [self._vectors[(self.agent, self.atoms[k][0][0])] for k in picked]


class KeepTable:
    """Best arbitration payoff for keeping y units of one deviator on one edge.

    Covers the outcome coalitions supported by {dev, other}; keeping k of the
    deviator's contribution in a coalition means withdrawing the rest.
    One ``line_chain`` across the edge's coalitions, one layer each, on the
    payments times ``scale``, the lcm of their denominators: ``row[y]`` is
    the best for y units, None when unreachable.
    """

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, dev: int, other: int):
        self._fill(g, o, rule, dev, {frozenset((dev, other))})

    def _fill(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, dev: int, pairs: set):
        """The table over the outcome coalitions whose support is one of
        ``pairs``, each {dev, a neighbour}."""
        self.dev = dev
        self.indices = [k for k, sup in enumerate(o.supports) if sup in pairs]
        S = frozenset((dev,))
        layers = []
        self.cap = 0
        for j in self.indices:
            c, x = o.structure[j], o.imputation[j]
            # keeping k units withdraws the rest, so the keeps run backwards
            withdrawals = reversed(withdrawal_options(g, c, S))
            layers.append([rule.coalition_payoff(g.charfun, c, d, x, S) for d in withdrawals])
            self.cap += c[dev]
        # the scale is read off the payments, which a rule may make any rational
        self.scale = d = _denominator(*layers)
        start = [0] + [None] * self.cap
        rows = [[_scaled(v, d) for v in pays] for pays in layers]
        self.row, self._trail = line_chain(start, rows)

    def value(self, y: int) -> Fraction | None:
        """Best payoff for keeping exactly y units; None when unreachable."""
        v = self.row[y] if y <= self.cap else None
        return None if v is None else Fraction(v, self.scale)

    def keeps(self, y: int) -> dict[int, int]:
        """Per-coalition kept units achieving value(y)."""
        picks, _ = line_unchain(self._trail, y)
        return dict(zip(self.indices, picks))


class AlphaTable(KeepTable):
    """Best total arbitration payoff for agent i keeping y units with the
    given non-deviating neighbours: one keep table over all those edges."""

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, i: int, others: list[int]):
        # not KeepTable.__init__, so bench/tracing.py counts no keep table here
        self._fill(g, o, rule, i, {frozenset((i, j)) for j in others})


class VBarTable:
    """Solo table of a deviator: split w units between working alone and
    staying in coalitions with non-deviating neighbours.  ``row`` holds its
    values times ``scale``, the lcm of its two tables' scales."""

    def __init__(self, single: SingleTable, alpha: AlphaTable, cap: int):
        self.single = single
        self.alpha = alpha
        self.scale = math.lcm(single.scale, alpha.scale)
        start = _lift(single.row[: cap + 1], self.scale // single.scale)
        kept = _lift(alpha.row, self.scale // alpha.scale)
        self.row, self._trail = line_chain(start, [kept])

    def witness(self, w: int) -> list[Coalition]:
        _, alone = line_unchain(self._trail, w)
        return self.single.witness(alone)

    def kept(self, w: int) -> dict[int, int]:
        (kept,), _ = line_unchain(self._trail, w)
        return self.alpha.keeps(kept)


def _deviation_from_keeps(
    g: GameDef, o: Outcome, kept: dict[int, int], deviators: frozenset[int]
) -> Deviation:
    """Translate per-coalition kept units into withdrawal vectors.

    Mixed coalitions absent from ``kept`` are fully withdrawn from.  A
    pairwise coalition shared with an outsider has exactly one deviator, so
    each withdrawal is that agent's solo vector of the game."""
    withdrawals: dict[int, Coalition] = {}
    for j in mixed_indices(o.structure, deviators):
        (i,) = o.supports[j] & deviators
        units = o.structure[j][i] - kept.get(j, 0)
        if units:
            withdrawals[j] = g._solo_vectors[(i, units)]
    return Deviation(withdrawals=withdrawals)


@dataclass
class _Walk:
    """One optimal state of a ``_BagEngine``, read back through its tables."""

    members: set[int]
    atoms: list[Coalition]  # the game's own vectors of the pair atoms picked
    solo: dict[int, int]  # resource level of each member's solo row
    keeps: dict[tuple[int, int], int]  # units kept per (member, non-member) edge


class _BagEngine:
    """Bag DP behind OptVal, ArbVal and CheckCore: one table per bag.

    A bag's table has one axis per bag agent.  Under CheckCore
    (``every_subset``) each axis starts with an out state, 0, before the
    member levels 0..cap at 1..cap+1, so one table holds every choice of
    members, the empty set (worth 0) among them.  OptVal and ArbVal fix the
    set to every vertex: their axes have no out state.  A member's level is
    how much of its resources flows into the bag's subtree.

    Per bag, one table over the bag's ``covers.Box``, a list indexed by
    each state's position in the box, starts as the product of per-axis
    rows (out is 0, a member level is the agent's solo row if it is homed
    here, else 0) and goes through ``covers.merge`` moves, each swept
    over a region of the box: the keep rows of each edge homed here, on the
    states where one end is a member and the other out (every other state is
    copied); one closure over the edges' pair atoms, on the states where
    both ends are members and stay so; then one merge per child into a fresh
    table.  A child's table is keyed by member-or-out states of its
    separator: an entry with an agent out pins that axis to out, and one at
    quota q takes q from the agent's level.  The bag's last merge fills only
    the states its projection reads: the agents homed here are forgotten
    above, each at out or at its whole cap, and the projection takes the
    best of those states for each state of the parent separator.  Each child
    merge and projection keeps the first best child entry or state in
    product order, where an axis's out state comes before its member levels.
    Bags with the same box
    caps and separator axes share those regions and the projection's plan
    (``_frame``).

    ``solo`` maps each vertex to its solo row, the value of each resource
    level up to its cap, and ``keeps`` maps (member, non-member) edges to
    the value of each number of units kept with the non-member; each row
    comes as ``int``s with the scale it holds them at.  The engine lifts
    every row, and the game's pair atoms, to ``self.scale``, the lcm of
    those scales and the game's, and its tables hold values at that scale.

    Every table is non-decreasing in each member level with the out pattern
    fixed: the solo rows are covers (less a payoff under CheckCore, convolved
    with an alpha row under ArbVal) or zeros, and a merge of such a table
    stays so.  Each operand merged in is therefore kept as its ``_frontier``
    under the out-state rule, built once: the keep rows at set-up, each
    edge's pair atoms per game (``CharacteristicFunction._pair_frontiers``),
    and a bag's projected table in ``self.final``.  Values are those of the
    full operands; a walk reads its witness through the first non-dominated
    entry that reaches a value.

    Every move records its label where it wins a state, keyed by position:
    the keep or atom, or the child entry, each with its shift's offset (how
    far the shift moves a position); each projection records the position
    that won it.  ``walk`` reads them back from the root's table, taking
    each offset off the position, and decodes a bag's last position into its
    levels through ``Box.keys``.  The engine keeps one ``covers.Box`` per
    distinct caps of its bags, and its memo of region sweeps, while it
    builds its tables, and drops them once every bag is done; the walk
    keeps each bag's ``keys`` with its labels.
    """

    def __init__(
        self,
        g: GameDef,
        t: TreeDecomposition,
        caps: Coalition,
        solo: dict[int, tuple[list[int], int]],
        keeps: dict[tuple[int, int], tuple[list[int | None], int]],
        every_subset: bool,
    ):
        self.t = t
        self.caps = caps
        graph = g.interaction
        assert graph is not None
        self.children, post, self.agents, self.sep, _, self.edges_at = _layout(
            t, set(solo), graph.simple_edges()
        )
        cf = g.charfun
        scales = [s for _, s in solo.values()] + [s for _, s in keeps.values()]
        self.scale = d = math.lcm(cf.scale, *scales)
        self.out = o = int(every_subset)  # the out state's share of each axis
        # per agent: its axis row where it is homed, and where it is not
        self._rows = {i: [0] * o + _lift(row, d // s) for i, (row, s) in solo.items()}
        self._zeros = [[0] * (c + 1 + o) for c in caps]
        # a keep row whose frontier is nothing kept for nothing leaves every
        # state as it is; a row with no coalition to keep in is one
        fronts = {e: (_frontier({(y,): v for y, v in enumerate(row)}), d // s)
                  for e, (row, s) in keeps.items()}
        self._keeps = {e: {z: v * m for z, v in f.items()} for e, (f, m) in fronts.items() if f != {(0,): 0}}
        m = d // cf.scale
        edges = [e for es in self.edges_at.values() for e in es]
        self._pairs = {e: [(c, v * m) for c, v in cf._pair_frontiers.get(e, ())] for e in edges}
        self._pins: dict = {}
        self.final: dict[int, tuple] = {}
        self.bp: dict[int, tuple] = {}
        frames: dict = {}  # per distinct box caps and separator axes (``_frame``)
        for X in post:
            self._bag(X, frames)

    def _place(self, box: Box, base: tuple, ks: Iterable[int], zs: Iterable[int]) -> tuple[tuple, tuple, int]:
        """The shift, region and offset of a move that puts axis ``ks[j]``
        at state ``zs[j]``, within the per-axis values ``base`` of ``box``:
        an out state pins the axis to out; a member state takes its level
        from the agent's, whose level must reach it.  Each axis's answer is
        kept per engine."""
        o = self.out
        shift, region, offset = [0] * len(base), list(base), 0
        for k, z in zip(ks, zs):
            got = self._pins.get((base[k], z))
            if got is None:
                member = z or not o
                values = tuple(x for x in base[k] if (x >= z if member else x == 0))
                got = self._pins[(base[k], z)] = (z - o if member else 0, values)
            shift[k], region[k] = got
            offset += got[0] * box.strides[k]
        return tuple(shift), tuple(region), offset

    def _moves(self, box: Box, base: tuple, ks: list[int], table: dict) -> list[tuple]:
        """One move per entry ``z`` of a child table, within ``base``, with
        the label (offset, ``z``)."""
        moves = []
        for z, v in table.items():
            shift, region, offset = self._place(box, base, ks, z)
            if all(region):
                moves.append((shift, region, v, (offset, z)))
        return moves

    def _frame(self, caps: Coalition, sk: tuple[int, ...], frames: dict) -> tuple:
        """What every bag with these box caps and parent-separator axes
        ``sk`` shares, built once per engine: the box (one per distinct
        caps), each axis's values (all, and where the projection reads it),
        and the projection's plan, the positions of the states it reads
        grouped by their separator state.  The other axes are homed at the
        bag and forgotten above, each at out (where there is one) or at its
        whole cap."""
        got = frames.get((caps, sk))
        if got is None:
            box = frames.get(caps) or frames.setdefault(caps, Box(caps))
            full = tuple(range(c + 1) for c in caps)
            ends = tuple(v if k in sk else (0, c)[1 - self.out :] for k, (v, c) in enumerate(zip(full, caps)))
            plan: dict = {}
            for r in product(*ends):
                plan.setdefault(tuple([r[k] for k in sk]), []).append(box.offset(r))
            got = frames[(caps, sk)] = (box, full, ends, plan)
        return got

    def _bag(self, X: int, frames: dict) -> None:
        o = self.out
        ax, sep_x = self.agents[X], self.sep[X]
        pos = {i: k for k, i in enumerate(ax)}
        sk = tuple(pos[i] for i in sep_x)
        box, full, ends, plan = self._frame(tuple(self.caps[i] + o for i in ax), sk, frames)
        pairs = box.pairs
        cur = [0]  # the product of the axis rows, summed, in box order
        for i in ax:
            cur = [v + x for v in cur for x in (self._zeros[i] if i in sep_x else self._rows[i])]
        keep_bp = []
        for a, b in self.edges_at[X] if self._keeps else ():
            for u, w in ((a, b), (b, a)):
                if (u, w) in self._keeps:  # the states with u in and w out keep afresh
                    ks = (pos[u], pos[w])
                    nxt, picks = cur[:], {}
                    for r in pairs(*self._place(box, full, ks, (1, 0))[:2])[0]:
                        nxt[r] = None
                    moves = []
                    for (y,), v in self._keeps[(u, w)].items():
                        shift, region, offset = self._place(box, full, ks, (y + o, 0))
                        moves.append((shift, region, v, (offset, (u, w), y)))
                    merge(pairs, cur, moves, nxt, picks)
                    cur = nxt
                    keep_bp.append(picks)
        atoms, moves = [], []
        for a, b in self.edges_at[X]:
            for c, v in self._pairs[(a, b)]:
                shift, region, offset = self._place(box, full, (pos[a], pos[b]), (c[a] + o, c[b] + o))
                moves.append((shift, region, v, len(atoms)))
                atoms.append((offset, c))
        atom_bp: dict = {}
        merge(pairs, cur, moves, cur, atom_bp)
        merge_bp = []
        kids = self.children[X]
        for Y in kids:
            ks = [pos[i] for i in self.sep[Y]]
            nxt, picks = [None] * len(cur), {}
            merge(pairs, cur, self._moves(box, ends if Y == kids[-1] else full, ks, self.final.pop(Y)), nxt, picks)
            cur = nxt
            merge_bp.append(picks)
        at, won = {}, {}
        for q, rs in plan.items():
            for r in rs:
                v = cur[r]
                if v is not None and (q not in at or v > at[q]):
                    at[q], won[q] = v, r
        self.final[X] = _frontier(at, o)
        self.bp[X] = (box.keys, won, merge_bp, atoms, atom_bp, keep_bp)

    def value(self) -> Fraction | None:
        """Best value over every set the tables hold (under CheckCore the
        empty set too, worth 0); None if no state is reached."""
        v = self.final[self.t.root].get(())
        return None if v is None else Fraction(v, self.scale)

    def walk(self) -> _Walk:
        """Read one optimal state back from the root, bag by bag."""
        o = self.out
        out = _Walk(set(), [], {}, {})
        stack = [(self.t.root, ())]
        while stack:
            X, q = stack.pop()
            keys, won, merge_bp, atoms, atom_bp, keep_bp = self.bp[X]
            r = won[q]
            # undo the child merges, last first, to find each child's state
            for Y, picks in zip(reversed(self.children[X]), reversed(merge_bp)):
                offset, z = picks[r]
                r -= offset
                stack.append((Y, z))
            while (k := atom_bp.get(r)) is not None:
                r -= atoms[k][0]
                out.atoms.append(atoms[k][1])
            for picks in reversed(keep_bp):
                if r in picks:
                    offset, e, out.keeps[e] = picks[r]
                    r -= offset
            r = keys[r]
            for k, i in enumerate(self.agents[X]):
                if i not in self.sep[X] and r[k] >= o:
                    out.members.add(i)
                    out.solo[i] = r[k] - o
        return out


def _decomposition(
    g: GameDef, t: TreeDecomposition | None, vertices: frozenset[int] | None = None
) -> TreeDecomposition:
    """The decomposition one solver call runs on, over ``vertices`` (every
    agent by default), for a pairwise game.

    A decomposition from the caller is restricted to the vertices and
    validated.  Without one, the subgraph the vertices induce gets
    ``forest_decomposition`` when it is a forest and min-fill otherwise;
    both are valid by construction and are not validated again."""
    graph = require_pairwise_game(g)
    verts = None if vertices is None else set(vertices)
    if t is None:
        if verts is not None:
            graph = InteractionGraph.from_pairs(
                g.n, [e for e in graph.simple_edges() if verts.issuperset(e)]
            )
        if graph.is_forest():
            return forest_decomposition(graph, verts)
        t = heuristic_decomposition(graph)
        return t if verts is None else restrict_decomposition(t, verts)
    if verts is not None:
        t = restrict_decomposition(t, verts)
    problems = validate_decomposition(graph, t, verts)
    if problems:
        raise ContractViolation("invalid tree decomposition: " + "; ".join(problems))
    return t


def optval_tw(
    g: GameDef, t: TreeDecomposition | None, c: Coalition
) -> tuple[Fraction, CoalitionStructure]:
    """Best structure value for resources ``c`` via the bag DP, with witness;
    ``t=None`` builds the decomposition (see ``_decomposition``)."""
    g.check_coalition(c)
    t = _decomposition(g, t)
    singles = [SingleTable(g, i, c[i]) for i in range(g.n)]
    solo = {i: (s.row, s.scale) for i, s in enumerate(singles)}
    engine = _BagEngine(g, t, c, solo, {}, every_subset=False)
    value = engine.value()
    walk = engine.walk()
    atoms = walk.atoms
    for i, w in walk.solo.items():
        atoms.extend(singles[i].witness(w))
    return value, _pad_fillers(g, atoms, c)


def arbval_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    t: TreeDecomposition | None = None,
    with_witness: bool = False,
):
    """Best deviation value of any S on any graph via the bag DP.

    ``t``, when given, must decompose the subgraph induced by S; bags holding
    extra agents are restricted down to S first.  When omitted, the induced
    subgraph gets ``forest_decomposition`` if it is a forest and min-fill
    otherwise.  Each deviator's solo row is its ``VBarTable``, which also
    keeps resources with non-deviating neighbours.  The empty set deviates
    to nothing."""
    require_local(rule)
    _require_agents(g.n, deviators)
    t = _decomposition(g, t, deviators)
    check_outcome_shape(g, o)
    if not deviators:
        return (ZERO, Deviation(), ()) if with_witness else ZERO
    graph = g.interaction
    assert graph is not None
    caps = tuple(g.weights[i] if i in deviators else 0 for i in range(g.n))
    vbars: dict[int, VBarTable] = {}
    for i in deviators:
        others = [j for j in graph.neighbors(i) if j not in deviators]
        vbars[i] = VBarTable(
            SingleTable(g, i, caps[i]), AlphaTable(g, o, rule, i, others), caps[i]
        )
    solo = {i: (v.row, v.scale) for i, v in vbars.items()}
    engine = _BagEngine(g, t, caps, solo, {}, every_subset=False)
    value = engine.value()
    if not with_witness:
        return value
    walk = engine.walk()
    atoms = walk.atoms
    kept: dict[int, int] = {}
    for i, w in walk.solo.items():
        atoms.extend(vbars[i].witness(w))
        kept.update(vbars[i].kept(w))
    dev = _deviation_from_keeps(g, o, kept, deviators)
    return value, dev, g._shared(tuple(atoms))


def _max_excess_bags(
    g: GameDef, rule: LocalArbitrationRule, o: Outcome, t: TreeDecomposition
) -> CoreViolation:
    """The nonempty set of maximum excess, with the deviation and
    post-deviation structure that earn it, from the every-subset engine over
    excesses: solo rows are solo covers less payoffs, and keep rows are the
    ``KeepTable``s, both ways, of the edges outcome coalitions span (no other
    edge has units to keep).  Where the walk ends at the empty set the max
    is 0, and N, keeping the structure, earns it.  Checks nothing: the
    public entries check their inputs once, and Is-Stable's candidates are
    valid outcomes by construction."""
    payoff = [ZERO] * g.n
    for x, sup in zip(o.imputation, o.supports):
        for i in sup:
            payoff[i] += x[i]
    spanned = dict.fromkeys(tuple(sorted(sup)) for sup in o.supports if len(sup) == 2)
    keeps = {(a, b): KeepTable(g, o, rule, a, b) for e in spanned for a, b in (e, e[::-1])}
    # solo rows: the game's covers lifted to a scale the payoffs share, less the payoffs
    d = math.lcm(g.charfun.scale, _denominator(payoff))
    m = d // g.charfun.scale
    solo = {}
    for i, (_, values, _) in enumerate(g._solo_covers):
        paid = _scaled(payoff[i], d)
        solo[i] = ([v * m - paid for v in values], d)
    engine = _BagEngine(
        g, t, g.weights, solo, {e: (k.row, k.scale) for e, k in keeps.items()}, every_subset=True
    )
    excess = engine.value()
    walk = engine.walk()
    if not walk.members:
        return CoreViolation(agents=g._shared(frozenset(range(g.n))), excess=excess,
                             deviation=Deviation(), post=o.structure)
    post = walk.atoms
    for i, w in walk.solo.items():
        post.extend(SingleTable(g, i, w).witness(w))
    kept: dict[int, int] = {}
    for e, y in walk.keeps.items():
        kept.update(keeps[e].keeps(y))
    members = g._shared(frozenset(walk.members))
    dev = _deviation_from_keeps(g, o, kept, members)
    return CoreViolation(agents=members, excess=excess, deviation=dev, post=g._shared(tuple(post)))


def checkcore_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    t: TreeDecomposition | None = None,
) -> CoreViolation | None:
    """None iff stable; otherwise a maximal-excess violating set with the
    deviation and post-deviation structure that earn its excess."""
    require_local(rule)
    t = _decomposition(g, t)
    check_outcome_shape(g, o)
    worst = _max_excess_bags(g, rule, o, t)
    return worst if worst.excess > 0 else None


def max_excess_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    t: TreeDecomposition | None = None,
) -> tuple[Fraction, frozenset[int]]:
    """Maximum excess over all nonempty subsets, via the bag DP."""
    require_local(rule)
    t = _decomposition(g, t)
    check_outcome_shape(g, o)
    worst = _max_excess_bags(g, rule, o, t)
    return worst.excess, worst.agents


def is_stable_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    cs: CoalitionStructure,
    t: TreeDecomposition | None = None,
    max_rounds: int = 100_000,
) -> Imputation | None:
    """``cutting_plane`` with the bag-DP max-excess scan as separation oracle:
    ``is_stable_tree`` on forests, and the same loop on any other graph.  The
    decomposition and the structure's pairwise shape are checked once, not
    every round, and the agents' solo covers are the game's own; the system
    the loop solves checks the rest of the structure, and its candidates are
    valid outcomes by construction."""
    t = _decomposition(g, t)
    check_structure_shape(g, cs)
    return cutting_plane(g, rule, cs, lambda o: _max_excess_bags(g, rule, o, t), max_rounds)
