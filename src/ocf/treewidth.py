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

Table layout: resource vectors over a bag are flattened in mixed-radix order,
radix caps_i + 1 per agent, agents ascending with the lowest agent as the
least significant digit (see ``flatten_index``).  Dumps use that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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
    support,
)
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


def flatten_index(state: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Mixed-radix index: lowest agent is the least significant digit."""
    idx = 0
    stride = 1
    for digit, dim in zip(state, dims):
        idx += digit * stride
        stride *= dim
    return idx


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


def _homes(
    t: TreeDecomposition, vertices: set[int], graph_edges: list[tuple[int, int]]
) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Topmost bag per vertex and per covered edge."""
    _, children, _ = t.rooted()
    depth: dict[int, int] = {}
    queue = [(t.root, 0)]
    while queue:
        v, d = queue.pop(0)
        depth[v] = d
        for u in children[v]:
            queue.append((u, d + 1))
    home_v: dict[int, int] = {}
    for i in vertices:
        holding = [idx for idx, bag in enumerate(t.bags) if i in bag]
        home_v[i] = min(holding, key=lambda idx: depth[idx])
    home_e: dict[tuple[int, int], int] = {}
    for a, b in graph_edges:
        if a in vertices and b in vertices:
            holding = [idx for idx, bag in enumerate(t.bags) if a in bag and b in bag]
            home_e[(a, b)] = min(holding, key=lambda idx: depth[idx])
    return home_v, home_e


class _TwOptEngine:
    """Bag-table engine behind optval_tw and arbval_tw.

    ``solo`` maps each vertex to its terminal table (plain single-agent cover
    for OptVal, the arbitration-aware one for ArbVal).  Tables are dicts keyed
    by resource tuples over the bag's sorted agents.
    """

    def __init__(self, g: GameDef, t: TreeDecomposition, caps: Coalition, vertices: set[int], solo):
        self.g = g
        self.t = t
        self.caps = caps
        graph = g.interaction
        assert graph is not None
        edges = [(a, b) for a, b in graph.simple_edges() if a in vertices and b in vertices]
        self.home_v, self.home_e = _homes(t, vertices, edges)
        self.parent, self.children, self.post = t.rooted()
        self.agents = {X: tuple(sorted(t.bags[X])) for X in range(len(t.bags))}
        self.solo = {i: solo(i) for i in vertices}
        self.sep: dict[int, tuple[int, ...]] = {}
        for X in range(len(t.bags)):
            p = self.parent[X]
            if p is None:
                self.sep[X] = ()
            else:
                self.sep[X] = tuple(sorted(t.bags[X] & t.bags[p]))
        self.f_choice: dict[int, dict] = {}
        self.merge_bp: dict[int, list[dict]] = {}
        self.layers: dict[int, list[dict]] = {}
        self.final: dict[int, dict] = {}
        self._atoms: dict[int, list] = {}
        for X in self.post:
            self._bag(X)

    def _box(self, agents: tuple[int, ...]):
        return product(*[range(self.caps[i] + 1) for i in agents])

    def _bag(self, X: int) -> None:
        g = self.g
        ax = self.agents[X]
        atoms: list[tuple[tuple[int, ...], Fraction]] = []
        for (a, b), hx in self.home_e.items():
            if hx != X:
                continue
            for c, v in g.charfun.atoms_within(frozenset((a, b))):
                if len(support(c)) == 2:
                    atoms.append((tuple(c[i] for i in ax), v))
        f: dict = {}
        choice: dict = {}
        for r in self._box(ax):
            best = ZERO
            for i, ri in zip(ax, r):
                if self.home_v.get(i) == X:
                    best += self.solo[i].value(ri)
            pick = None
            for idx, (a, v) in enumerate(atoms):
                if all(x <= y for x, y in zip(a, r)):
                    cand = v + f[tuple(y - x for x, y in zip(a, r))]
                    if cand > best:
                        best = cand
                        pick = idx
            f[r] = best
            choice[r] = pick
        self.f_choice[X] = choice
        self._atoms[X] = atoms

        layers = [f]
        bps: list[dict] = [dict()]
        for Y in self.children[X]:
            sep_y = self.sep[Y]
            pos = [ax.index(i) for i in sep_y]
            prev = layers[-1]
            child = self.final[Y]
            cur: dict = {}
            bp: dict = {}
            for r in self._box(ax):
                best = None
                pick = None
                for z in product(*[range(r[p] + 1) for p in pos]):
                    rest = list(r)
                    for p, zz in zip(pos, z):
                        rest[p] -= zz
                    cand = prev[tuple(rest)] + child[z]
                    if best is None or cand > best:
                        best = cand
                        pick = z
                cur[r] = best
                bp[r] = pick
            layers.append(cur)
            bps.append(bp)
        self.layers[X] = layers
        self.merge_bp[X] = bps

        final: dict = {}
        top = layers[-1]
        sep_x = self.sep[X]
        for q in self._box(sep_x):
            avail = tuple(
                q[sep_x.index(i)] if i in sep_x else self.caps[i] for i in ax
            )
            final[q] = top[avail]
        self.final[X] = final

    def value(self) -> Fraction:
        return self.final[self.t.root][()]

    def collect(self, sink: list[Coalition], solo_sink) -> None:
        stack = []
        root = self.t.root
        ax = self.agents[root]
        avail = tuple(self.caps[i] for i in ax)
        stack.append((root, avail))
        while stack:
            X, state = stack.pop()
            ax = self.agents[X]
            kids = self.children[X]
            for step in range(len(kids), 0, -1):
                Y = kids[step - 1]
                z = self.merge_bp[X][step][state]
                sep_y = self.sep[Y]
                ay = self.agents[Y]
                child_avail = tuple(
                    z[sep_y.index(i)] if i in sep_y else self.caps[i] for i in ay
                )
                stack.append((Y, child_avail))
                pos = [ax.index(i) for i in sep_y]
                s = list(state)
                for p, zz in zip(pos, z):
                    s[p] -= zz
                state = tuple(s)
            while True:
                pick = self.f_choice[X][state]
                if pick is None:
                    break
                a, _ = self._atoms[X][pick]
                full = [0] * self.g.n
                for i, w in zip(ax, a):
                    full[i] = w
                sink.append(tuple(full))
                state = tuple(y - x for x, y in zip(a, state))
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
    engine.collect(atoms, lambda i, w: atoms.extend(engine.solo[i].witness(w, g.n)))
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
        atoms.extend(vbars[i].witness(w, g.n))
        kept.update(vbars[i].kept(w))

    engine.collect(atoms, emit)
    dev = _deviation_from_keeps(o, kept, deviators, g.n)
    return value, dev, tuple(atoms)


class _TwCoreEngine:
    """Per-bag subset-and-resources DP behind checkcore_tw.

    State at a bag: which separator agents deviate, how much of each
    deviator's weight flows into the subtree, and whether some deviator is
    already homed at-or-below (so the empty set never reports excess 0).
    """

    def __init__(self, g: GameDef, o: Outcome, rule: LocalArbitrationRule, t: TreeDecomposition):
        self.g = g
        self.o = o
        self.rule = rule
        self.t = t
        graph = g.interaction
        assert graph is not None
        self.vertices = set(range(g.n))
        edges = graph.simple_edges()
        self.home_v, self.home_e = _homes(t, self.vertices, edges)
        self.parent, self.children, self.post = t.rooted()
        self.agents = {X: tuple(sorted(t.bags[X])) for X in range(len(t.bags))}
        self.sep: dict[int, tuple[int, ...]] = {}
        for X in range(len(t.bags)):
            p = self.parent[X]
            self.sep[X] = () if p is None else tuple(sorted(t.bags[X] & t.bags[p]))
        self.payoff = {i: o.payoff_to_agent(i) for i in range(g.n)}
        self.singles = {i: SingleTable(g, i, g.weights[i]) for i in range(g.n)}
        self.keeps: dict[tuple[int, int], KeepTable] = {}
        # final[X]: dict (sep mask tuple, q tuple, flag) -> (value, bp)
        self.final: dict[int, dict] = {}
        self.bp: dict[int, dict] = {}
        for X in self.post:
            self._bag(X)

    def _keep(self, dev: int, other: int) -> KeepTable:
        key = (dev, other)
        if key not in self.keeps:
            self.keeps[key] = KeepTable(self.g, self.o, self.rule, dev, other)
        return self.keeps[key]

    def _bag(self, X: int) -> None:
        g = self.g
        ax = self.agents[X]
        sep_x = self.sep[X]
        caps = g.weights
        homed = [i for i in ax if self.home_v[i] == X]
        my_edges = [e for e, hx in self.home_e.items() if hx == X]
        final: dict = {}
        bp: dict = {}
        for bits in range(1 << len(ax)):
            D = tuple(i for k, i in enumerate(ax) if bits >> k & 1)
            dset = frozenset(D)
            flag_local = any(i in homed for i in D)
            # local value layer over the deviators' resource box
            box = list(product(*[range(caps[i] + 1) for i in D]))
            pos = {i: k for k, i in enumerate(D)}
            base: dict = {}
            for r in box:
                val = ZERO
                for i in homed:
                    if i in dset:
                        val += self.singles[i].value(r[pos[i]]) - self.payoff[i]
                base[r] = val
            cur = base
            keep_bp_tables = []
            for (a, b) in my_edges:
                ina, inb = a in dset, b in dset
                if ina == inb:
                    continue
                dev, other = (a, b) if ina else (b, a)
                kt = self._keep(dev, other)
                if kt.cap == 0:
                    keep_bp_tables.append(((a, b), dev, kt, None))
                    continue
                nxt: dict = {}
                kbp: dict = {}
                k = pos[dev]
                for r in box:
                    best = None
                    pick = None
                    for y in range(min(r[k], kt.cap) + 1):
                        kv = kt.value(y)
                        if kv is None:
                            continue
                        rr = list(r)
                        rr[k] -= y
                        prior = cur[tuple(rr)]
                        if prior is None:
                            continue
                        cand = prior + kv
                        if best is None or cand > best:
                            best = cand
                            pick = y
                    nxt[r] = best
                    kbp[r] = pick
                cur = nxt
                keep_bp_tables.append(((a, b), dev, kt, kbp))
            atoms = []
            for (a, b) in my_edges:
                if a in dset and b in dset:
                    for c, v in g.charfun.atoms_within(frozenset((a, b))):
                        if len(support(c)) == 2:
                            atoms.append((tuple(c[i] for i in D), v))
            closed: dict = {}
            atom_bp: dict = {}
            for r in box:
                best = cur[r]
                pick = None
                for idx, (a, v) in enumerate(atoms):
                    if all(x <= y for x, y in zip(a, r)):
                        prior = closed[tuple(y - x for x, y in zip(a, r))]
                        if prior is None:
                            continue
                        cand = v + prior
                        if best is None or cand > best:
                            best = cand
                            pick = idx
                closed[r] = best
                atom_bp[r] = pick
            # children merges with flag tracking: value by (state, flag)
            layers: list[dict] = [{(r, flag_local): closed[r] for r in box}]
            child_bp: list[dict] = [dict()]
            for Y in self.children[X]:
                sep_y = self.sep[Y]
                mask_y = tuple(1 if i in dset else 0 for i in sep_y)
                dev_y = tuple(i for i in sep_y if i in dset)
                prev = layers[-1]
                child = self.final[Y]
                cur2: dict = {}
                cbp: dict = {}
                for r in box:
                    for z in product(*[range(r[pos[i]] + 1) for i in dev_y]):
                        rr = list(r)
                        for i, zz in zip(dev_y, z):
                            rr[pos[i]] -= zz
                        rrt = tuple(rr)
                        for f_prev in (False, True):
                            pv = prev.get((rrt, f_prev))
                            if pv is None:
                                continue
                            for f_child in (False, True):
                                cv = child.get((mask_y, z, f_child))
                                if cv is None:
                                    continue
                                cand = pv + cv
                                key = (r, f_prev or f_child)
                                best = cur2.get(key)
                                if best is None or cand > best:
                                    cur2[key] = cand
                                    cbp[key] = (z, f_prev, f_child)
                layers.append(cur2)
                child_bp.append(cbp)
            top = layers[-1]
            sep_mask = tuple(1 if i in dset else 0 for i in sep_x)
            sep_dev = tuple(i for i in sep_x if i in dset)
            for q in product(*[range(caps[i] + 1) for i in sep_dev]):
                avail = tuple(
                    q[sep_dev.index(i)] if i in sep_dev else caps[i] for i in D
                )
                for flag in (False, True):
                    v = top.get((avail, flag))
                    if v is None:
                        continue
                    key = (sep_mask, q, flag)
                    old = final.get(key)
                    if old is None or v > old:
                        final[key] = v
                        bp[key] = (bits, avail, child_bp, keep_bp_tables, atom_bp)
        self.final[X] = final
        self.bp[X] = bp

    def best(self) -> Fraction | None:
        """Maximum excess over nonempty subsets; None if no state reached."""
        return self.final[self.t.root].get(((), (), True))

    def members(self) -> frozenset[int]:
        out: set[int] = set()
        self._walk(self.t.root, ((), (), True), out)
        return frozenset(out)

    def _walk(self, X: int, key, out: set[int]) -> None:
        bits, avail, child_bp, _keeps, _abp = self.bp[X][key]
        ax = self.agents[X]
        D = tuple(i for k, i in enumerate(ax) if bits >> k & 1)
        pos = {i: k for k, i in enumerate(D)}
        for i in D:
            if self.home_v[i] == X:
                out.add(i)
        # replay the child merges backwards to find each child's state
        kids = self.children[X]
        _, _, flag = key
        state = avail
        for step in range(len(kids), 0, -1):
            Y = kids[step - 1]
            pick = child_bp[step].get((state, flag))
            assert pick is not None
            z, f_prev, f_child = pick
            sep_y = self.sep[Y]
            dset = set(D)
            mask_y = tuple(1 if i in dset else 0 for i in sep_y)
            dev_y = tuple(i for i in sep_y if i in dset)
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
