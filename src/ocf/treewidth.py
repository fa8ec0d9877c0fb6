"""Tree-decomposition solvers for 2-OCF games on arbitrary interaction graphs.

The tree algorithms generalize to any graph once a tree decomposition is in
hand: per-bag tables indexed by resource vectors over the bag-parent
separator replace the per-agent weight tables, and runtime grows with
(W+1)^(width+1) instead of W.  Exactness never depends on the decomposition
being width-optimal, only speed does, so decompositions may come from a file
or from the min-fill heuristic.

Charging discipline: every agent's solo work (and, for deviations, its kept
resources with outside neighbours) is priced exactly once, at the *topmost*
bag containing the agent; every edge's pair coalitions form at the topmost
bag containing both ends.  Resources flow root-to-leaves through separator
quotas, so anything an agent owns is available at its home bag and below.

Arithmetic: each engine call scales every value its tables read (atom values,
solo-table rows, payoffs, keep-table rows) by one common denominator D and
runs the (max,+) kernel of :mod:`ocf.covers` (``closure`` for the atoms
priced at a bag, ``convolve`` for child merges and keep layers) on Python
ints, which is exact; answers are converted back to ``Fraction`` on the way
out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .arbitration import Deviation, LocalArbitrationRule, UnsupportedRuleError
from .core import (
    ZERO,
    Coalition,
    CoalitionStructure,
    ContractViolation,
    GameDef,
    Imputation,
    InteractionGraph,
    Outcome,
)
from .covers import closure, convolve, unwind
from .oracle import CoreViolation, _pad_fillers
from .tree import (
    AlphaTable,
    KeepTable,
    SingleTable,
    VBarTable,
    _deviation_from_keeps,
    check_outcome_shape,
    cutting_plane,
    require_two_ocf_tree,
    rooted_forest,
)


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]
    root: int

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def rooted(self) -> tuple[dict[int, int | None], dict[int, list[int]], list[int]]:
        """(parent, children, postorder) over bag indices, from the root."""
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.bags))}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        parent: dict[int, int | None] = {self.root: None}
        children: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        order = [self.root]
        queue = [self.root]
        while queue:
            v = queue.pop(0)
            for u in sorted(adj[v]):
                if u not in parent:
                    parent[u] = v
                    children[v].append(u)
                    order.append(u)
                    queue.append(u)
        post = list(reversed(order))
        return parent, children, post


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
    adj: dict[int, set[int]] = {i: set() for i in range(nb)}
    for a, b in t.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {t.root}
    queue = [t.root]
    while queue:
        v = queue.pop(0)
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    if len(seen) != nb:
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
        comp = {holding[0]}
        queue = [holding[0]]
        while queue:
            v = queue.pop(0)
            for u in adj[v]:
                if u in hset and u not in comp:
                    comp.add(u)
                    queue.append(u)
        if comp != hset:
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
    ``vertices``), read off ``rooted_forest`` without any elimination order.

    One bag per component root and one {parent, child} bag per edge, hung
    under the bag that introduced the parent; the roots of later components
    hang under the first root's bag.
    """
    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []
    for tree in rooted_forest(graph, vertices):
        intro = {tree.root: len(bags)}
        if bags:
            edges.append((0, len(bags)))
        bags.append(frozenset((tree.root,)))
        for v in tree.vertices[1:]:
            p = tree.parent[v]
            intro[v] = len(bags)
            edges.append((intro[p], len(bags)))
            bags.append(frozenset((p, v)))
    return TreeDecomposition(bags=tuple(bags) or (frozenset(),), edges=tuple(edges), root=0)


def restrict_decomposition(t: TreeDecomposition, vertices: set[int]) -> TreeDecomposition:
    """Intersect every bag with ``vertices``; validity is preserved."""
    return TreeDecomposition(
        bags=tuple(frozenset(b & vertices) for b in t.bags),
        edges=t.edges,
        root=t.root,
    )


def _layout(t: TreeDecomposition, vertices: set[int], graph_edges: Iterable[tuple[int, int]]):
    """Bag layout shared by both engines: (children, postorder, sorted agents
    per bag, sorted parent separator per bag, topmost bag per vertex, topmost
    bag per edge inside ``vertices``)."""
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
    home_e = {
        (a, b): max(home_v[a], home_v[b], key=depth.__getitem__)
        for a, b in graph_edges
        if a in vertices and b in vertices
    }
    return children, post, agents, sep, home_v, home_e


def _denominator(*groups: Iterable[Fraction | None]) -> int:
    """Least common multiple of the denominators of every value; None skipped."""
    return math.lcm(*(v.denominator for vs in groups for v in vs if v is not None))


def _scaled(v: Fraction | None, d: int) -> int | None:
    """``v`` times ``d`` as an int; ``d`` must be a multiple of its denominator."""
    return None if v is None else v.numerator * (d // v.denominator)


def _pair_atoms(g: GameDef, a: int, b: int) -> list[tuple[Coalition, Fraction]]:
    """Stored coalitions supported by exactly the two ends of edge (a, b)."""
    return [(c, v) for c, v in g.charfun.atoms_within(frozenset((a, b))) if c[a] and c[b]]


class _TwOptEngine:
    """Bag-table engine behind optval_tw and arbval_tw.

    ``solo`` maps each vertex to its terminal table (plain single-agent cover
    for OptVal, the arbitration-aware one for ArbVal).  Tables are dicts keyed
    by resource tuples over the bag's sorted agents; they hold values scaled
    by ``self.scale``.
    """

    def __init__(self, g: GameDef, t: TreeDecomposition, caps: Coalition, vertices: set[int], solo):
        self.t = t
        self.caps = caps
        graph = g.interaction
        assert graph is not None
        self.children, post, self.agents, self.sep, self.home_v, home_e = _layout(
            t, vertices, graph.simple_edges()
        )
        self.solo = {i: solo(i) for i in vertices}
        # pair atoms, priced at the topmost bag holding both ends of the edge
        atoms: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {
            X: [] for X in range(len(t.bags))
        }
        # the game's own vector of each atom, which witnesses hold
        self._vectors: dict[int, list[Coalition]] = {X: [] for X in atoms}
        for (a, b), hx in home_e.items():
            for c, v in _pair_atoms(g, a, b):
                atoms[hx].append((tuple(c[i] for i in self.agents[hx]), v))
                self._vectors[hx].append(c)
        d = _denominator(
            (v for bag in atoms.values() for _, v in bag),
            (v for table in self.solo.values() for v in table.values),
        )
        self.scale = d
        self._atoms = {X: [(a, _scaled(v, d)) for a, v in bag] for X, bag in atoms.items()}
        self._solo = {i: [_scaled(v, d) for v in table.values] for i, table in self.solo.items()}
        self.f_choice: dict[int, dict] = {}
        self.merge_bp: dict[int, list[dict]] = {}
        self.final: dict[int, dict] = {}
        for X in post:
            self._bag(X)

    def _bag(self, X: int) -> None:
        ax = self.agents[X]
        caps = tuple(self.caps[i] for i in ax)
        homed = [(k, self._solo[i]) for k, i in enumerate(ax) if self.home_v.get(i) == X]
        base = {
            r: sum(row[r[k]] for k, row in homed)
            for r in product(*[range(c + 1) for c in caps])
        }
        layer, self.f_choice[X] = closure(caps, self._atoms[X], base)
        bps = []
        for Y in self.children[X]:
            axes = [ax.index(i) for i in self.sep[Y]]
            layer, bp = convolve(caps, layer, axes, self.final[Y])
            bps.append(bp)
        self.merge_bp[X] = bps
        sep_x = self.sep[X]
        self.final[X] = {
            q: layer[tuple(q[sep_x.index(i)] if i in sep_x else self.caps[i] for i in ax)]
            for q in product(*[range(self.caps[i] + 1) for i in sep_x])
        }

    def value(self) -> Fraction:
        return Fraction(self.final[self.t.root][()], self.scale)

    def collect(self, sink: list[Coalition], solo_sink) -> None:
        root = self.t.root
        stack = [(root, tuple(self.caps[i] for i in self.agents[root]))]
        while stack:
            X, state = stack.pop()
            ax = self.agents[X]
            for Y, bp in zip(reversed(self.children[X]), reversed(self.merge_bp[X])):
                z = bp[state]
                sep_y = self.sep[Y]
                stack.append(
                    (Y, tuple(z[sep_y.index(i)] if i in sep_y else self.caps[i] for i in self.agents[Y]))
                )
                s = list(state)
                for i, zz in zip(sep_y, z):
                    s[ax.index(i)] -= zz
                state = tuple(s)
            picked, state = unwind(self._atoms[X], self.f_choice[X], state)
            sink.extend(self._vectors[X][k] for k in picked)
            for i, ri in zip(ax, state):
                if self.home_v.get(i) == X:
                    solo_sink(i, ri)


def _prepare(g: GameDef, t: TreeDecomposition, vertices: set[int] | None = None) -> set[int]:
    require_two_ocf_tree(g, need_forest=False)
    verts = set(range(g.n)) if vertices is None else set(vertices)
    assert g.interaction is not None
    problems = validate_decomposition(g.interaction, t, verts)
    if problems:
        raise ContractViolation("invalid tree decomposition: " + "; ".join(problems))
    return verts


def optval_tw(
    g: GameDef, t: TreeDecomposition, c: Coalition
) -> tuple[Fraction, CoalitionStructure]:
    """Best structure value for resources ``c`` via the bag DP, with witness."""
    g.check_coalition(c)
    _prepare(g, t)
    engine = _TwOptEngine(
        g, t, c, set(range(g.n)), solo=lambda i: SingleTable(g, i, c[i])
    )
    value = engine.value()
    atoms: list[Coalition] = []
    engine.collect(atoms, lambda i, w: atoms.extend(engine.solo[i].witness(w)))
    return value, _pad_fillers(atoms, c, g.n)


def arbval_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    t: TreeDecomposition | None = None,
    with_witness: bool = False,
):
    """Best deviation value of S on an arbitrary graph via the bag DP.

    ``t`` must be a decomposition of the subgraph induced by S; bags holding
    extra agents are restricted down to S first.  When omitted, the min-fill
    heuristic runs on the induced subgraph.
    """
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(f"rule {rule.name} is not local")
    graph = require_two_ocf_tree(g, need_forest=False)
    check_outcome_shape(g, o)
    if not deviators:
        return (ZERO, Deviation(), ()) if with_witness else ZERO
    induced = InteractionGraph.from_pairs(
        g.n, [(a, b) for a, b in graph.simple_edges() if a in deviators and b in deviators]
    )
    if t is None:
        t = heuristic_decomposition(induced)
    t = restrict_decomposition(t, set(deviators))
    _prepare(g, t, set(deviators))
    return _arbval_bags(g, rule, o, deviators, t, with_witness)


def _arbval_bags(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    deviators: frozenset[int],
    t: TreeDecomposition,
    with_witness: bool,
):
    """The bag DP behind ``arbval_tw`` and ``arbval_tree``, on arguments the
    caller has already checked; ``t`` covers exactly the deviators."""
    graph = g.interaction
    assert graph is not None
    caps = tuple(g.weights[i] if i in deviators else 0 for i in range(g.n))
    vbars: dict[int, VBarTable] = {}
    for i in deviators:
        others = [j for j in graph.neighbors(i) if j not in deviators]
        vbars[i] = VBarTable(
            SingleTable(g, i, caps[i]), AlphaTable(g, o, rule, i, others), caps[i]
        )
    engine = _TwOptEngine(g, t, caps, set(deviators), solo=lambda i: vbars[i])
    value = engine.value()
    if not with_witness:
        return value
    atoms: list[Coalition] = []
    kept: dict[int, int] = {}

    def emit(i: int, w: int) -> None:
        atoms.extend(vbars[i].witness(w))
        kept.update(vbars[i].kept(w))

    engine.collect(atoms, emit)
    dev = _deviation_from_keeps(o, kept, deviators, g.n)
    return value, dev, tuple(atoms)


class _TwCoreEngine:
    """Per-bag subset-and-resources DP behind checkcore_tw.

    State at a bag: which separator agents deviate, how much of each
    deviator's weight flows into the subtree, and whether some deviator is
    already homed at-or-below (so the empty set never reports excess 0).
    Tables hold excesses scaled by ``self.scale``.
    """

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, t: TreeDecomposition):
        self.g = g
        self.t = t
        graph = g.interaction
        assert graph is not None
        self.children, post, self.agents, self.sep, self.home_v, self.home_e = _layout(
            t, set(range(g.n)), graph.simple_edges()
        )
        payoff = [ZERO] * g.n
        for x, sup in zip(o.imputation, o.supports):
            for i in sup:
                payoff[i] += x[i]
        singles = [SingleTable(g, i, g.weights[i]).values for i in range(g.n)]
        # both orientations of every edge: the subset masks use them all
        keeps = {}
        atoms = {}
        for a, b in self.home_e:
            keeps[(a, b)] = KeepTable(g, o, rule, a, b).values
            keeps[(b, a)] = KeepTable(g, o, rule, b, a).values
            atoms[(a, b)] = _pair_atoms(g, a, b)
        d = _denominator(
            payoff,
            (v for row in singles for v in row),
            (v for row in keeps.values() for v in row),
            (v for row in atoms.values() for _, v in row),
        )
        self.scale = d
        # solo value minus payoff, per agent and resource level
        self.excess = [
            [_scaled(v - p, d) for v in row] for row, p in zip(singles, payoff)
        ]
        # a keep table with no coalition to keep in leaves every state as it is
        self.keeps = {
            key: {(y,): _scaled(v, d) for y, v in enumerate(row)}
            for key, row in keeps.items()
            if len(row) > 1
        }
        self.atoms = {e: [(c, _scaled(v, d)) for c, v in row] for e, row in atoms.items()}
        # final[X]: dict (sep mask tuple, q tuple, flag) -> value
        self.final: dict[int, dict] = {}
        self.bp: dict[int, dict] = {}
        for X in post:
            self._bag(X)

    def _bag(self, X: int) -> None:
        ax = self.agents[X]
        sep_x = self.sep[X]
        weights = self.g.weights
        homed = [i for i in ax if self.home_v[i] == X]
        my_edges = [e for e, hx in self.home_e.items() if hx == X]
        # each child's final table, sliced once by (separator mask, flag)
        slices = []
        for Y in self.children[X]:
            by: dict = {}
            for (mask, q, flag), v in self.final[Y].items():
                by.setdefault((mask, flag), {})[q] = v
            slices.append(by)
        final: dict = {}
        bp: dict = {}
        for bits in range(1 << len(ax)):
            D = tuple(i for k, i in enumerate(ax) if bits >> k & 1)
            dset = frozenset(D)
            caps = tuple(weights[i] for i in D)
            pos = {i: k for k, i in enumerate(D)}
            # local value layer over the deviators' resource box
            rows = [(pos[i], self.excess[i]) for i in homed if i in dset]
            cur = {
                r: sum(row[r[k]] for k, row in rows)
                for r in product(*[range(c + 1) for c in caps])
            }
            for a, b in my_edges:
                if (a in dset) != (b in dset):
                    dev, other = (a, b) if a in dset else (b, a)
                    kt = self.keeps.get((dev, other))
                    if kt is not None:
                        cur, _ = convolve(caps, cur, (pos[dev],), kt)
            atoms = [
                (tuple(c[i] for i in D), v)
                for a, b in my_edges
                if a in dset and b in dset
                for c, v in self.atoms[(a, b)]
            ]
            cur, _ = closure(caps, atoms, cur)
            # child merges, one table per flag; per child and flag, the
            # (f_prev, f_child, picks) sources and the states a later one won
            layer = {any(i in dset for i in homed): cur}
            child_bp: list[dict] = []
            for Y, by in zip(self.children[X], slices):
                sep_y = self.sep[Y]
                mask_y = tuple(1 if i in dset else 0 for i in sep_y)
                axes = [pos[i] for i in sep_y if i in dset]
                merged: dict = {}
                steps: dict = {}
                for f_prev, prev in layer.items():
                    for f_child in (False, True):
                        child = by.get((mask_y, f_child))
                        if child is None:
                            continue
                        out, picks = convolve(caps, prev, axes, child)
                        flag = f_prev or f_child
                        if flag not in merged:
                            merged[flag] = out
                            steps[flag] = ([(f_prev, f_child, picks)], {})
                            continue
                        best = merged[flag]
                        sources, won = steps[flag]
                        for r, v in out.items():
                            if v is not None and (best[r] is None or v > best[r]):
                                best[r] = v
                                won[r] = len(sources)
                        sources.append((f_prev, f_child, picks))
                layer = merged
                child_bp.append(steps)
            sep_mask = tuple(1 if i in dset else 0 for i in sep_x)
            sep_dev = tuple(i for i in sep_x if i in dset)
            for q in product(*[range(weights[i] + 1) for i in sep_dev]):
                avail = tuple(
                    q[sep_dev.index(i)] if i in sep_dev else weights[i] for i in D
                )
                for flag, top in layer.items():
                    v = top[avail]
                    if v is None:
                        continue
                    key = (sep_mask, q, flag)
                    old = final.get(key)
                    if old is None or v > old:
                        final[key] = v
                        bp[key] = (bits, avail, child_bp)
        self.final[X] = final
        self.bp[X] = bp

    def best(self) -> Fraction | None:
        """Maximum excess over nonempty subsets; None if no state reached."""
        v = self.final[self.t.root].get(((), (), True))
        return None if v is None else Fraction(v, self.scale)

    def members(self) -> frozenset[int]:
        out: set[int] = set()
        self._walk(self.t.root, ((), (), True), out)
        return frozenset(out)

    def _walk(self, X: int, key, out: set[int]) -> None:
        bits, avail, child_bp = self.bp[X][key]
        ax = self.agents[X]
        D = tuple(i for k, i in enumerate(ax) if bits >> k & 1)
        pos = {i: k for k, i in enumerate(D)}
        for i in D:
            if self.home_v[i] == X:
                out.add(i)
        # replay the child merges backwards to find each child's state
        _, _, flag = key
        state = avail
        for Y, steps in zip(reversed(self.children[X]), reversed(child_bp)):
            sources, won = steps[flag]
            f_prev, f_child, picks = sources[won.get(state, 0)]
            z = picks[state]
            assert z is not None
            sep_y = self.sep[Y]
            mask_y = tuple(1 if i in pos else 0 for i in sep_y)
            dev_y = tuple(i for i in sep_y if i in pos)
            self._walk(Y, (mask_y, z, f_child), out)
            rr = list(state)
            for i, zz in zip(dev_y, z):
                rr[pos[i]] -= zz
            state = tuple(rr)
            flag = f_prev


def checkcore_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    t: TreeDecomposition,
) -> CoreViolation | None:
    """None iff stable; otherwise a maximal-excess violating set."""
    excess, members = max_excess_tw(g, rule, o, t)
    if excess <= 0:
        return None
    return CoreViolation(agents=members, excess=excess)


def max_excess_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    o: Outcome,
    t: TreeDecomposition,
) -> tuple[Fraction, frozenset[int]]:
    """Maximum excess over all nonempty subsets, via the bag DP."""
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(f"rule {rule.name} is not local")
    check_outcome_shape(g, o)
    _prepare(g, t)
    engine = _TwCoreEngine(g, o, rule, t)
    value = engine.best()
    if value is None:  # pragma: no cover - nonempty subsets always exist
        raise RuntimeError("bag DP produced no nonempty subset")
    return value, engine.members()


def is_stable_tw(
    g: GameDef,
    rule: LocalArbitrationRule,
    cs: CoalitionStructure,
    t: TreeDecomposition,
    max_rounds: int = 100_000,
) -> Imputation | None:
    """Experimental: ``cutting_plane`` with the bag-DP CheckCore as
    separation oracle, the tree lane's Is-Stable on arbitrary graphs."""
    _prepare(g, t)

    def separate(outcome: Outcome):
        violation = checkcore_tw(g, rule, outcome, t)
        if violation is None:
            return None
        _, dev, post = arbval_tw(g, rule, outcome, violation.agents, t=t, with_witness=True)
        return violation.agents, dev, post

    return cutting_plane(g, rule, cs, separate, max_rounds)
