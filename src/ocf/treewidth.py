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

One engine, ``_BagEngine``, answers OptVal, ArbVal and CheckCore.  CheckCore
adds one choice per bag, which of its agents deviate; OptVal and ArbVal fix
the set to every vertex.  One walk back through the engine's tables reads
off a witness: the members, the pair atoms picked, each member's solo
level, and the units each member keeps with each non-member neighbour.
One max-excess scan, ``_max_excess_bags``, turns that walk into the worst
set's deviation and post-deviation structure, as ``oracle._max_excess_scan``
does on the oracle; CheckCore, max-excess and the cutting-plane loop of
Is-Stable (``cutting_plane`` in :mod:`ocf.stability`) all read it, so the
loop reads its cuts without solving ArbVal again.

The feeder tables of the engine's solo and keep rows live here too:
``SingleTable`` (an agent alone, a view of the game's solo cover),
``KeepTable`` (a deviator keeping units on one edge), ``AlphaTable`` (a
``KeepTable`` over all its edges to non-deviators: one chain over their
coalitions) and ``VBarTable`` (both), as do the outcome check
(``check_outcome_shape``: ``core.require_outcome``, the outcome check of
every lane, then a pairwise-shaped structure; no cutting-plane round checks
the LP's own candidate) and ``forest_decomposition``, the width-1
decomposition read off one breadth-first search (``core.reach``) per
component.

Charging discipline: every agent's solo work is priced exactly once, at the
*topmost* bag containing the agent; every edge's pair coalitions, and under
CheckCore the units a member keeps on it with a non-member, are priced at
the topmost bag containing both ends.  (ArbVal folds a deviator's keeps with
outside neighbours into its solo row.)  Resources flow root-to-leaves
through separator quotas, so anything an agent owns is available at its home
bag and below.

Arithmetic: each engine call scales every value its tables read (atom values,
solo rows, payoffs, keep rows) by one common denominator D and runs the
(max,+) kernel of :mod:`ocf.covers` (``closure`` for the atoms priced at a
bag, ``chain`` for keep rows, ``convolve`` for child merges, and ``unwind``
and ``unchain`` to read them back) on Python ints, which is exact; answers
are converted back to ``Fraction`` on the way out.
"""

from __future__ import annotations

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
from .covers import _denominator, _frontier, _scaled, chain, closure, convolve, unchain, unwind
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
    ``check_structure_shape``."""
    require_outcome(g, o)
    check_structure_shape(g, o.structure)


def check_structure_shape(g: GameDef, cs: CoalitionStructure) -> None:
    """Every coalition has at most two contributors, joined by an edge."""
    if g.interaction is None:
        raise UnsupportedGameError("solver requires an interaction graph")
    for j, sup in enumerate(map(support, cs)):
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
    t = TreeDecomposition(bags=tuple(bags), edges=tuple(edges), root=len(bags) - 1)
    problems = validate_decomposition(g, t)
    if problems:  # pragma: no cover - construction is valid by design
        raise RuntimeError(f"min-fill produced an invalid decomposition: {problems}")
    return t


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
    as a view of the prefix up to ``cap`` of the game's solo cover."""

    def __init__(self, g: GameDef, i: int, cap: int):
        self.agent = i
        self.atoms, values, self.choice = g._solo_covers[i]
        self.values = values[: cap + 1]
        self._vectors = g._solo_vectors

    def witness(self, w: int) -> list[Coalition]:
        picked, _ = unwind(self.atoms, self.choice, (w,))
        return [self._vectors[(self.agent, self.atoms[k][0][0])] for k in picked]


def _line(values: list) -> dict:
    """A 1-d value list as a kernel table keyed by 1-tuples."""
    return {(k,): v for k, v in enumerate(values)}


class KeepTable:
    """Best arbitration payoff for keeping y units of one deviator on one edge.

    Covers the outcome coalitions supported by {dev, other}; keeping k of the
    deviator's contribution in a coalition means withdrawing the rest.
    One ``chain`` across the edge's coalitions, one layer each.
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
            pays = [rule.coalition_payoff(g.charfun, c, d, x, S) for d in withdrawals]
            layers.append(((0,), _line(pays)))
            self.cap += c[dev]
        table, self._trail = chain((self.cap,), _line([ZERO] + [None] * self.cap), layers)
        self.values = list(table.values())

    def value(self, y: int) -> Fraction | None:
        """Best payoff for keeping exactly y units; None when unreachable."""
        if y > self.cap:
            return None
        return self.values[y]

    def keeps(self, y: int) -> dict[int, int]:
        """Per-coalition kept units achieving value(y)."""
        picks, _ = unchain(self._trail, (y,))
        return {j: k for j, (k,) in zip(self.indices, picks)}


class AlphaTable(KeepTable):
    """Best total arbitration payoff for agent i keeping y units with the
    given non-deviating neighbours: one keep table over all those edges."""

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, i: int, others: list[int]):
        # not KeepTable.__init__, so bench/tracing.py counts no keep table here
        self._fill(g, o, rule, i, {frozenset((i, j)) for j in others})


class VBarTable:
    """Solo table of a deviator: split w units between working alone and
    staying in coalitions with non-deviating neighbours."""

    def __init__(self, single: SingleTable, alpha: AlphaTable, cap: int):
        self.single = single
        self.alpha = alpha
        table, self._trail = chain((cap,), _line(single.values), [((0,), _line(alpha.values))])
        self.values = list(table.values())

    def witness(self, w: int) -> list[Coalition]:
        _, (alone,) = unchain(self._trail, (w,))
        return self.single.witness(alone)

    def kept(self, w: int) -> dict[int, int]:
        [(kept,)], _ = unchain(self._trail, (w,))
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
    """Bag DP behind OptVal, ArbVal and CheckCore.

    A bag's tables are keyed by separator mask, then flag, then separator
    quota q: which parent-separator agents are members of the set, whether
    some member is homed at-or-below (so the empty set never answers
    CheckCore), and how much of each member's resources flows into the
    subtree.  Per choice of members D inside a bag, one box layer over D's
    resources starts from the solo rows of the members homed there, convolves
    in the keep rows of edges from a member to a non-member, closes over the
    pair atoms of edges inside D, and merges each child's table on the
    separator axes.

    ``solo`` maps each vertex to its solo row: the value of each resource
    level up to its cap.  ``keeps`` maps (member, non-member) edges to the
    value of each number of units kept with the non-member.  With
    ``every_subset`` each subset of a bag's agents is tried as D (CheckCore);
    otherwise D is the whole bag and the set is every vertex (OptVal,
    ArbVal).  Tables hold values scaled by ``self.scale``.

    Every table a box layer merges into is non-decreasing in resources: the
    solo rows are covers (less a payoff under CheckCore, convolved with an
    alpha row under ArbVal) or zeros, and a convolution or closure of such a
    table stays so.  Each operand merged in is therefore kept as its
    ``_frontier``, built once: the keep rows at set-up, each edge's pair
    atoms per game (``CharacteristicFunction._pair_frontiers``), and a bag's
    finished tables in ``self.final``, which CheckCore merges once per subset
    of the parent bag.  Values are those of the full operands; a walk reads
    its witness through the first non-dominated entry that reaches a value.
    """

    def __init__(
        self,
        g: GameDef,
        t: TreeDecomposition,
        caps: Coalition,
        solo: dict[int, list[Fraction]],
        keeps: dict[tuple[int, int], list[Fraction | None]],
        every_subset: bool,
    ):
        self.t = t
        self.caps = caps
        graph = g.interaction
        assert graph is not None
        self.children, post, self.agents, self.sep, home_v, self.edges_at = _layout(
            t, set(solo), graph.simple_edges()
        )
        self.homed = {X: [i for i in ax if home_v.get(i) == X] for X, ax in self.agents.items()}
        pairs = {e: g.charfun._pair_frontiers.get(e, []) for es in self.edges_at.values() for e in es}
        d = _denominator(
            (v for row in solo.values() for v in row),
            (v for row in keeps.values() for v in row),
            (v for row in pairs.values() for _, v in row),
        )
        self.scale = d
        self._solo = {i: [_scaled(v, d) for v in row] for i, row in solo.items()}
        # a keep row whose frontier is nothing kept for nothing leaves every
        # state as it is; a row with no coalition to keep in is one
        self._keeps = {}
        for e, row in keeps.items():
            front = _frontier({(y,): _scaled(v, d) for y, v in enumerate(row)})
            if front != {(0,): 0}:
                self._keeps[e] = front
        self._pairs = {e: [(c, _scaled(v, d)) for c, v in row] for e, row in pairs.items()}
        # per agent: its resource levels, and the solo row of a bag it is not homed at
        self._span = [range(c + 1) for c in caps]
        self._zeros = [[0] * (c + 1) for c in caps]
        self.every_subset = every_subset
        self.final: dict[int, dict] = {}
        self.bp: dict[int, dict] = {}
        for X in post:
            self._bag(X)

    def _bag(self, X: int) -> None:
        ax = self.agents[X]
        sep_x = self.sep[X]
        homed = self.homed[X]
        edges = self.edges_at[X]
        kids = [(self.sep[Y], self.final[Y]) for Y in self.children[X]]
        all_caps, span, solo, zeros = self.caps, self._span, self._solo, self._zeros
        if self.every_subset:
            subsets = [
                tuple(i for k, i in enumerate(ax) if bits >> k & 1) for bits in range(1 << len(ax))
            ]
        else:
            subsets = [ax]
        final: dict = {}
        bp: dict = {}
        for D in subsets:
            pos = dict(zip(D, range(len(D))))
            caps = tuple(all_caps[i] for i in D)
            box = product(*[span[i] for i in D])
            rows = product(*[solo[i] if i in homed else zeros[i] for i in D])
            cur = {r: sum(vs) for r, vs in zip(box, rows)}
            # (member, non-member) edges with a keep row
            cut = [(a, b) if a in pos else (b, a) for a, b in edges if (a in pos) != (b in pos)]
            keep_edges = [e for e in cut if e in self._keeps]
            cur, keep_trail = chain(caps, cur, [((pos[e[0]],), self._keeps[e]) for e in keep_edges])
            pairs = [p for a, b in edges if a in pos and b in pos for p in self._pairs[(a, b)]]
            atoms = [(tuple(c[i] for i in D), v) for c, v in pairs]
            cur, atom_bp = closure(caps, atoms, cur)
            # child merges, one table per flag; per child and flag, the
            # (f_prev, f_child, trail) sources and the states a later one won
            layer = {any(i in pos for i in homed): cur}
            child_bp: list[dict] = []
            for sep_y, by in kids:
                mask_y = tuple(i in pos for i in sep_y)
                axes = [pos[i] for i in sep_y if i in pos]
                merged: dict = {}
                steps: dict = {}
                for f_prev, prev in layer.items():
                    for f_child, child in by.get(mask_y, {}).items():
                        out, picks = convolve(caps, prev, axes, child)
                        source = (f_prev, f_child, [(axes, picks)])
                        _keep_best(merged, steps, f_prev or f_child, out, source)
                layer = merged
                child_bp.append(steps)
            rec = (D, pos, keep_edges, keep_trail, pairs, atoms, atom_bp, child_bp)
            # project onto the parent separator: members there get quota q,
            # the rest own their whole caps; both products run in q's order
            qs = product(*[span[i] for i in D if i in sep_x])
            avail = product(*[span[i] if i in sep_x else (all_caps[i],) for i in D])
            at = list(zip(qs, avail))
            mask = tuple(i in pos for i in sep_x)
            tables = final.setdefault(mask, {})
            steps = bp.setdefault(mask, {})
            for flag, top in layer.items():
                _keep_best(tables, steps, flag, {q: top[r] for q, r in at}, rec)
        self.final[X] = {
            mask: {flag: _frontier(table) for flag, table in by_flag.items()}
            for mask, by_flag in final.items()
        }
        self.bp[X] = bp

    def value(self) -> Fraction | None:
        """Best value over sets with a member; None if no state reached."""
        v = self.final[self.t.root].get((), {}).get(True, {}).get(())
        return None if v is None else Fraction(v, self.scale)

    def walk(self) -> _Walk:
        """Read one optimal state back from the root, bag by bag."""
        out = _Walk(set(), [], {}, {})
        stack = [(self.t.root, (), True, ())]
        while stack:
            X, mask, flag, q = stack.pop()
            sources, won = self.bp[X][mask][flag]
            D, pos, keep_edges, keep_trail, pairs, atoms, atom_bp, child_bp = sources[won.get(q, 0)]
            sep_x = self.sep[X]
            quota = iter(q)  # the separator members' quotas, in D's order
            state = tuple(next(quota) if i in sep_x else self.caps[i] for i in D)
            # replay the child merges backwards to find each child's state
            for Y, steps in zip(reversed(self.children[X]), reversed(child_bp)):
                merges, won_at = steps[flag]
                f_prev, f_child, trail = merges[won_at.get(state, 0)]
                (z,), state = unchain(trail, state)
                stack.append((Y, tuple(i in pos for i in self.sep[Y]), f_child, z))
                flag = f_prev
            picked, state = unwind(atoms, atom_bp, state)
            out.atoms.extend(pairs[k][0] for k in picked)
            ys, state = unchain(keep_trail, state)
            for e, (y,) in zip(keep_edges, ys):
                out.keeps[e] = y
            for i in self.homed[X]:
                if i in pos:
                    out.members.add(i)
                    out.solo[i] = state[pos[i]]
        return out


def _keep_best(tables: dict, steps: dict, key, table: dict, source) -> None:
    """Pointwise max of ``table`` into ``tables[key]``; ``steps[key]`` holds
    the sources and, per state, the index of a later source that won it."""
    best = tables.get(key)
    if best is None:
        tables[key] = table
        steps[key] = ([source], {})
        return
    sources, won = steps[key]
    idx = len(sources)
    wins = False
    for r, v in table.items():
        if v is not None and (best[r] is None or v > best[r]):
            best[r] = v
            won[r] = idx
            wins = True
    if wins:
        sources.append(source)


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
    engine = _BagEngine(g, t, c, {i: s.values for i, s in enumerate(singles)}, {}, every_subset=False)
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
    engine = _BagEngine(g, t, caps, {i: v.values for i, v in vbars.items()}, {}, every_subset=False)
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
    return value, dev, tuple(atoms)


def _max_excess_bags(
    g: GameDef, rule: LocalArbitrationRule, o: Outcome, t: TreeDecomposition
) -> CoreViolation:
    """The nonempty set of maximum excess, with the deviation and
    post-deviation structure that earn it, from the every-subset engine over
    excesses: solo rows are solo covers less payoffs, and keep rows are the
    ``KeepTable``s, both ways, of the edges outcome coalitions span (no other
    edge has units to keep).  Checks nothing: the public entries check their
    inputs once, and Is-Stable's candidates are valid outcomes by construction."""
    payoff = [ZERO] * g.n
    for x, sup in zip(o.imputation, o.supports):
        for i in sup:
            payoff[i] += x[i]
    spanned = dict.fromkeys(tuple(sorted(sup)) for sup in o.supports if len(sup) == 2)
    keeps = {(a, b): KeepTable(g, o, rule, a, b) for e in spanned for a, b in (e, e[::-1])}
    engine = _BagEngine(
        g,
        t,
        g.weights,
        {i: [v - payoff[i] for v in values] for i, (_, values, _) in enumerate(g._solo_covers)},
        {e: k.values for e, k in keeps.items()},
        every_subset=True,
    )
    excess = engine.value()
    if excess is None:  # pragma: no cover - nonempty subsets always exist
        raise RuntimeError("bag DP produced no nonempty subset")
    walk = engine.walk()
    post = walk.atoms
    for i, w in walk.solo.items():
        post.extend(SingleTable(g, i, w).witness(w))
    kept: dict[int, int] = {}
    for e, y in walk.keeps.items():
        kept.update(keeps[e].keeps(y))
    members = frozenset(walk.members)
    dev = _deviation_from_keeps(g, o, kept, members)
    return CoreViolation(agents=members, excess=excess, deviation=dev, post=tuple(post))


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
    ``is_stable_tree`` on forests, experimental on other graphs.  The
    decomposition and the structure's pairwise shape are checked once, not
    every round, and the agents' solo covers are the game's own; the system
    the loop solves checks the rest of the structure, and its candidates are
    valid outcomes by construction."""
    t = _decomposition(g, t)
    check_structure_shape(g, cs)
    return cutting_plane(g, rule, cs, lambda o: _max_excess_bags(g, rule, o, t), max_rounds)
