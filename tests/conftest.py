"""Shared fixtures: the hand-built G1/O1/L1 instances, random generators, the
Hypothesis strategy of the lanes' differential tests and a brute-force
feasibility check for small linear systems.

G1 is the two-agent game used throughout the docs: weights (2, 1), agent 0
makes 1 from one unit alone or 3 from both, agent 1 makes 2 alone, and the
pair coalition (1, 1) makes 4.  O1 splits the pair's 4 evenly and gives agent
0 its solo 1.  L1 is the two-agent bottleneck instance with a joint task at
price 3 and a solo task for agent 0 at price 1.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ocf.core import GameDef, InteractionGraph, Outcome, make_charfun, support
from ocf.lbg import LbgInstance, make_lbg_instance
from ocf.oracle import EnumerationBudget


@pytest.fixture
def g1() -> GameDef:
    cf = make_charfun(
        2,
        2,
        [
            ((0,), (1,), Fraction(1)),
            ((0,), (2,), Fraction(3)),
            ((1,), (1,), Fraction(2)),
            ((0, 1), (1, 1), Fraction(4)),
        ],
    )
    return GameDef(
        n=2,
        weights=(2, 1),
        charfun=cf,
        interaction=InteractionGraph.from_pairs(2, [(0, 1)]),
    )


@pytest.fixture
def o1() -> Outcome:
    return Outcome(
        structure=((1, 1), (1, 0)),
        imputation=((Fraction(2), Fraction(2)), (Fraction(1), Fraction(0))),
    )


@pytest.fixture
def l1() -> LbgInstance:
    return make_lbg_instance(
        2,
        [Fraction(2), Fraction(1)],
        [({0, 1}, Fraction(3)), ({0}, Fraction(1)), ({1}, Fraction(0))],
    )


@pytest.fixture
def big_budget() -> EnumerationBudget:
    return EnumerationBudget(max_agents=16, max_weight=6, max_structures=10**7)


def fan3_game() -> tuple[GameDef, tuple[tuple[int, ...], ...]]:
    """Agent 0 between agents 1 and 2, one unit each: the pair {0, 1} makes
    1 and the pair {0, 2} makes 4.  The structure holds {0, 2} and agent 1
    alone.  A split of the 4 that pays agent 0 nothing lets {0, 1} deviate,
    so Is-Stable needs a cut on a two-agent set."""
    cf = make_charfun(3, 2, [((0, 1), (1, 1), Fraction(1)), ((0, 2), (1, 1), Fraction(4))])
    g = GameDef(
        n=3,
        weights=(1, 1, 1),
        charfun=cf,
        interaction=InteractionGraph.from_pairs(3, [(0, 1), (0, 2)]),
    )
    return g, ((1, 0, 1), (0, 1, 0))


def random_tree_game(rng: random.Random, nmax: int = 5, wmax: int = 3, vmax: int = 10) -> GameDef:
    """Random 2-OCF game over a random tree, sparse value table."""
    n = rng.randint(2, nmax)
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    graph = InteractionGraph.from_pairs(n, edges)
    entries = {}
    for i in range(n):
        for w in range(1, weights[i] + 1):
            if rng.random() < 0.5:
                entries[((i,), (w,))] = Fraction(rng.randint(1, vmax))
    for a, b in edges:
        a, b = min(a, b), max(a, b)
        for wa in range(1, weights[a] + 1):
            for wb in range(1, weights[b] + 1):
                if rng.random() < 0.5:
                    entries[((a, b), (wa, wb))] = Fraction(rng.randint(1, vmax))
    cf = make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    return GameDef(n=n, weights=weights, charfun=cf, interaction=graph)


def random_graph_game(rng: random.Random, nmax: int = 5, wmax: int = 3, vmax: int = 10) -> GameDef:
    """Random 2-OCF game over a cycle or clique interaction graph."""
    n = rng.randint(3, nmax)
    if rng.random() < 0.5:
        edges = [(i, (i + 1) % n) for i in range(n)]
        if n >= 4 and rng.random() < 0.5:
            edges.append((0, 2))
    else:
        n = min(n, 4)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = InteractionGraph.from_pairs(n, edges)
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    entries = {}
    for i in range(n):
        for w in range(1, weights[i] + 1):
            if rng.random() < 0.5:
                entries[((i,), (w,))] = Fraction(rng.randint(1, vmax))
    for a, b in [tuple(sorted(e)) for e in edges]:
        for wa in range(1, weights[a] + 1):
            for wb in range(1, weights[b] + 1):
                if rng.random() < 0.45:
                    entries[((a, b), (wa, wb))] = Fraction(rng.randint(1, vmax))
    cf = make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    return GameDef(n=n, weights=weights, charfun=cf, interaction=graph)


def random_structure(rng: random.Random, g: GameDef) -> tuple[tuple[int, ...], ...]:
    """Feasible pairwise-shaped structure: supports are vertices or edges."""
    n = g.n
    remaining = list(g.weights)
    cs = []
    supports = [(i,) for i in range(n)] + list(g.interaction.simple_edges())
    for _ in range(rng.randint(0, 2 * n)):
        sup = rng.choice(supports)
        if any(remaining[i] == 0 for i in sup):
            continue
        c = [0] * n
        for i in sup:
            c[i] = rng.randint(1, remaining[i])
        for i in sup:
            remaining[i] -= c[i]
        cs.append(tuple(c))
    return tuple(cs)


def random_outcome(rng: random.Random, g: GameDef) -> Outcome:
    """Valid outcome: random structure plus a random exact split of each value."""
    return random_split(rng, g, random_structure(rng, g))


# Interaction graphs for the lanes' differential tests, as (n, edges): three
# forests, then graphs of treewidth 2 (a triangle, a 4-cycle with and
# without a chord, two disjoint triangles) and 3 (K4).
SHAPES = {
    "path": (4, ((0, 1), (1, 2), (2, 3))),
    "star": (4, ((0, 1), (0, 2), (0, 3))),
    "two edges": (4, ((0, 1), (2, 3))),
    "triangle": (3, ((0, 1), (1, 2), (0, 2))),
    "cycle": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "chorded cycle": (4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))),
    "K4": (4, tuple(itertools.combinations(range(4), 2))),
    "two triangles": (6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))),
}
CYCLIC = ("triangle", "cycle", "chorded cycle", "K4", "two triangles")


def random_shaped_game(rng: random.Random, shape: str, wmax: int = 2) -> GameDef:
    """Random 2-OCF game on ``SHAPES[shape]`` that favours pairs: each
    agent-and-level coalition is worth 1-3 with probability 1/4, each edge's
    coalition 2-6 with probability 7/10, so structures overlap and the
    rules' payments matter."""
    n, edges = SHAPES[shape]
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    rows = []
    for i in range(n):
        for w in range(1, weights[i] + 1):
            if rng.random() < 0.25:
                rows.append(((i,), (w,), rng.randint(1, 3)))
    for a, b in edges:
        for contrib in itertools.product(range(1, weights[a] + 1), range(1, weights[b] + 1)):
            if rng.random() < 0.7:
                rows.append(((a, b), contrib, rng.randint(2, 6)))
    return GameDef(n=n, weights=weights, charfun=make_charfun(n, 2, rows),
                   interaction=InteractionGraph.from_pairs(n, edges))


def random_maximal_structure(rng: random.Random, g: GameDef, tries: int = 1) -> tuple:
    """Of ``tries`` random maximal structures, the first of highest value.
    Each is drawn one positive-valued stored coalition at a time until none
    fits, so it often repeats a coalition; the best of a few is often
    optimal, and so often stable."""
    atoms = [c for c, _ in g.charfun.atoms()]
    best, best_value = (), None
    for _ in range(tries):
        remaining, cs = list(g.weights), []
        while True:
            fits = [c for c in atoms if all(map(int.__le__, c, remaining))]
            if not fits:
                break
            c = rng.choice(fits)
            cs.append(c)
            remaining = [r - a for r, a in zip(remaining, c)]
        value = sum(g.charfun.value(c) for c in cs)
        if best_value is None or value > best_value:
            best, best_value = tuple(cs), value
    return best


@st.composite
def shaped_cases(draw, shapes) -> tuple[GameDef, tuple]:
    """Hypothesis strategy: a ``random_shaped_game`` on one of ``shapes``
    with a ``random_maximal_structure`` or the best of eight.  Weights go
    up to 2, or 1 on six agents, where the oracle's Is-Stable would take
    seconds at weight 2."""
    shape = draw(st.sampled_from(shapes))
    rng = draw(st.randoms(use_true_random=True))
    g = random_shaped_game(rng, shape, wmax=1 if SHAPES[shape][0] > 4 else 2)
    return g, random_maximal_structure(rng, g, tries=draw(st.sampled_from((1, 8))))


def random_k3_game(rng: random.Random, nmax: int = 4, wmax: int = 2, vmax: int = 10) -> GameDef:
    """Random 3-OCF game without an interaction graph: a sparse value table
    over every support of one to three agents."""
    n = rng.randint(3, nmax)
    weights = tuple(rng.randint(1, wmax) for _ in range(n))
    rows = []
    for size in (1, 2, 3):
        for sup in itertools.combinations(range(n), size):
            for contrib in itertools.product(*[range(1, weights[i] + 1) for i in sup]):
                if rng.random() < 0.3:
                    rows.append((sup, contrib, Fraction(rng.randint(1, vmax))))
    return GameDef(n=n, weights=weights, charfun=make_charfun(n, 3, rows))


def random_k_outcome(rng: random.Random, g: GameDef) -> Outcome:
    """Valid outcome over supports of up to k agents, often leaving weight
    unused, with a random exact split of each value."""
    remaining = list(g.weights)
    cs = []
    for _ in range(rng.randint(0, g.n + 1)):
        sup = rng.sample(range(g.n), rng.randint(1, g.charfun.k))
        if any(remaining[i] == 0 for i in sup):
            continue
        c = [0] * g.n
        for i in sup:
            c[i] = rng.randint(1, remaining[i])
            remaining[i] -= c[i]
        cs.append(tuple(c))
    return random_split(rng, g, tuple(cs))


def random_split(rng: random.Random, g: GameDef, cs: tuple[tuple[int, ...], ...]) -> Outcome:
    """The structure with a random exact split of each coalition's value
    among its contributors."""
    imp = []
    for c in cs:
        v = g.charfun.value(c)
        sup = sorted(support(c))
        x = [Fraction(0)] * g.n
        if sup and v > 0:
            cuts = sorted(rng.randint(0, 2 * v.numerator) for _ in range(len(sup) - 1))
            prev = 0
            for i, cut in zip(sup, cuts + [2 * v.numerator]):
                x[i] = Fraction(cut - prev, 2 * v.denominator)
                prev = cut
        imp.append(tuple(x))
    return Outcome(structure=cs, imputation=tuple(imp))


def random_lbg_instance(rng: random.Random, nmax: int = 5, tmax: int = 8) -> LbgInstance:
    """Random bottleneck instance with denominators up to 4."""
    n = rng.randint(1, nmax)
    weights = [Fraction(rng.randint(1, 6), rng.choice([1, 2, 4])) for _ in range(n)]
    tasks = []
    seen = set()
    for _ in range(rng.randint(0, tmax)):
        k = rng.randint(1, n)
        agents = frozenset(rng.sample(range(n), k))
        if agents in seen:
            continue
        seen.add(agents)
        tasks.append((agents, Fraction(rng.randint(0, 8), rng.choice([1, 2, 4]))))
    return make_lbg_instance(n, weights, tasks)


LinearRow = tuple[dict[int, Fraction], str, Fraction]


def row_holds(x, coeffs: dict[int, Fraction], sense: str, rhs: Fraction) -> bool:
    lhs = sum((a * x[j] for j, a in coeffs.items()), start=Fraction(0))
    return {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[sense]


def _solve_square(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The unique solution of mat.x = rhs by Gauss-Jordan elimination, or
    None when mat is singular."""
    n = len(mat)
    aug = [row + [b] for row, b in zip(mat, rhs)]
    for col in range(n):
        p = next((r for r in range(col, n) if aug[r][col]), None)
        if p is None:
            return None
        aug[col], aug[p] = aug[p], aug[col]
        inv = Fraction(1) / aug[col][col]
        top = aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [a - f * b if b else a for a, b in zip(aug[r], top)]
    return [row[n] for row in aug]


def feasible_vertex(n: int, rows: list[LinearRow]) -> list[Fraction] | None:
    """A vertex of {x >= 0 : rows}, or None when that set is empty.

    A vertex makes n independent constraints tight: r of the rows and the
    bounds of all but r variables, which are 0.  This tries every such
    choice and solves the r x r system left.  The set lies in the
    non-negative orthant, so it has no line and is non-empty exactly when
    it has a vertex.  Meant as a reference that shares no code with
    ``ocf.lp``, for n and the row count up to about 6."""
    for r in range(min(n, len(rows)) + 1):
        for tight in itertools.combinations(rows, r):
            rhs = [b for _, _, b in tight]
            for basic in itertools.combinations(range(n), r):
                values = _solve_square([[c.get(j, Fraction(0)) for j in basic] for c, _, _ in tight], rhs)
                if values is None:
                    continue
                x = [Fraction(0)] * n
                for j, v in zip(basic, values):
                    x[j] = v
                if min(x) >= 0 and all(row_holds(x, *row) for row in rows):
                    return x
    return None
