"""The incremental stability system: ``lp.DualSimplex`` against a brute-force
vertex enumeration that shares no code with ``ocf.lp`` (the same tableau
also runs both phases of ``solve_lp``), the presolve of ``StabilitySystem``,
the two reductions of the cutting-plane loop (copies of a coalition share
one payoff row, and a separated set is cut once per connected component),
and Is-Stable at acceptance scale, on games whose LPs used to take minutes."""

import random
import time
from fractions import Fraction

import pytest

import ocf.stability as stability_module
from ocf.arbitration import (
    CONSERVATIVE,
    OPTIMISTIC,
    OPTIMISTIC_CLAMPED,
    REFINED,
    CoreViolation,
    Deviation,
    RefinedRule,
    deviation_total,
    split_violation,
)
from ocf.core import (
    BudgetExceededError,
    ContractViolation,
    GameDef,
    InteractionGraph,
    Outcome,
    make_charfun,
    structure_value,
    validate_outcome,
)
from ocf.lp import DualSimplex, LinearProgram, pivot, solve_lp
from ocf.oracle import EnumerationBudget, brute_checkcore, brute_is_stable
from ocf.stability import StabilitySystem, _variables, cutting_plane, ir_rows
from ocf.tree import checkcore_tree, is_stable_tree, optval_tree
from ocf.treewidth import checkcore_tw, heuristic_decomposition, is_stable_tw, optval_tw
from conftest import (
    feasible_vertex,
    random_graph_game,
    random_outcome,
    random_structure,
    random_tree_game,
    row_holds,
)

F = Fraction


def _random_system(rng: random.Random):
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {j: F(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.7}
        rows.append((coeffs, rng.choice(("<=", ">=", "=")), F(rng.randint(-4, 6), rng.choice((1, 2)))))
    return n, rows


def test_dual_simplex_matches_vertex_enumeration():
    """On seeded random systems of =, <= and >= rows the dual simplex and
    vertex enumeration agree on feasibility; a point found satisfies every
    row exactly; rows added one at a time, with a solve after each, end
    where enumeration on those rows does; and the vertex is the same on a
    rerun."""
    rng = random.Random(83)
    outcomes = {"feasible": 0, "infeasible": 0}
    for _ in range(300):
        n, rows = _random_system(rng)
        feasible = feasible_vertex(n, rows) is not None
        outcomes["feasible" if feasible else "infeasible"] += 1
        system = DualSimplex(n)
        for row in rows:
            system.add_row(*row)
        x = system.solve()
        assert (x is None) == (not feasible)
        if x is not None:
            assert all(type(v) is F and v >= 0 for v in x)
            assert all(row_holds(x, *row) for row in rows)
        grown = DualSimplex(n)
        for k, row in enumerate(rows):
            grown.add_row(*row)
            y = grown.solve()
            assert (y is None) == (feasible_vertex(n, rows[: k + 1]) is None)
            if y is not None:
                assert all(row_holds(y, *r) for r in rows[: k + 1])
        again = DualSimplex(n)
        for row in rows:
            again.add_row(*row)
        assert again.solve() == x
    assert min(outcomes.values()) >= 50, outcomes


def _beale_rows():
    """Beale's cycling example (max 3/4 u4 - 20 u5 + 1/2 u6 - 6 u7 over the
    cone of its two degenerate rows) read as the dual feasibility system
    {y >= 0 : M^T y >= c}.  The cone is unbounded, so no y exists."""
    M = [[F(1, 4), F(-8), F(-1), F(9)], [F(1, 2), F(-12), F(-1, 2), F(3)]]
    c = [F(3, 4), F(-20), F(1, 2), F(-6)]
    return [({k: M[k][j] for k in range(2)}, ">=", c[j]) for j in range(4)]


def test_dual_simplex_bland_rule_prevents_cycling():
    """With a zero objective every dual pivot is degenerate.  Letting the
    most infeasible row leave revisits the first basis after six pivots on
    Beale's system, transposed; the lowest-index rule proves it infeasible."""
    trap = DualSimplex(2)
    for row in _beale_rows():
        trap.add_row(*row)
    tab, basis = trap.tab, trap.basis
    start = sorted(basis)
    for _ in range(6):
        leave = min(
            (i for i, r in enumerate(tab) if r[0] < 0), key=lambda i: (F(tab[i][0], tab[i][basis[i]]), basis[i])
        )
        enter = next(j for j in range(1, len(tab[leave])) if tab[leave][j] < 0)
        pivot(tab, basis, leave, enter)
    assert sorted(basis) == start
    system = DualSimplex(2)
    for row in _beale_rows():
        system.add_row(*row)
    assert system.solve() is None
    assert feasible_vertex(2, _beale_rows()) is None


def _g1() -> GameDef:
    cf = make_charfun(
        2,
        2,
        [((0,), (1,), F(1)), ((0,), (2,), F(3)), ((1,), (1,), F(2)), ((0, 1), (1, 1), F(4))],
    )
    return GameDef(n=2, weights=(2, 1), charfun=cf, interaction=InteractionGraph.from_pairs(2, [(0, 1)]))


def test_presolve_singleton_and_empty_coalitions():
    """Singleton coalitions fix their variable at v(c), so a structure of
    singletons leaves no variable at all; a coalition with empty support
    gets no variable and an all-zero payoff vector."""
    g = _g1()
    singles = ((2, 0), (0, 1))
    want = ((F(3), F(0)), (F(0), F(2)))
    assert is_stable_tree(g, CONSERVATIVE, singles) == want
    assert brute_is_stable(g, CONSERVATIVE, singles) == want
    mixed = ((1, 1), (1, 0))
    padded = ((1, 1), (0, 0), (1, 0))
    for rule in (CONSERVATIVE, REFINED):
        plain = is_stable_tree(g, rule, mixed)
        assert plain is not None
        for solve in (is_stable_tree, brute_is_stable):
            imp = solve(g, rule, padded)
            assert imp == (plain[0], (F(0), F(0)), plain[1])


def test_presolve_negative_value_is_infeasible():
    """Loaded games reject negative values; the system still answers None
    for a coalition worth less than 0, pair or singleton, and keeps that
    answer as rows are added.  Neither game has a solo value, so no
    individual-rationality row is what rules the point out."""
    for sup, contrib, cs in (((0, 1), (1, 1), ((1, 1),)), ((0,), (1,), ((1, 0), (0, 1)))):
        cf = make_charfun(2, 2, [(sup, contrib, F(1))])
        g = GameDef(n=2, weights=(1, 1), charfun=cf, interaction=InteractionGraph.from_pairs(2, [(0, 1)]))
        assert StabilitySystem(g, CONSERVATIVE, cs).solve() is not None
        cf.entries[sup][contrib] = F(-1)
        system = StabilitySystem(g, CONSERVATIVE, cs)
        assert system.solve() is None
        system.add_cut({}, F(0))
        assert system.solve() is None


def test_presolve_idle_agent_with_solo_value():
    """An agent in no coalition is paid nothing; its individual-rationality
    row then reads 0 >= v*_i, so a positive solo value means None on every
    lane, and a zero one does not."""
    g = _g1()
    for solve in (is_stable_tree, brute_is_stable):
        assert solve(g, CONSERVATIVE, ((2, 0),)) is None
    cf = make_charfun(2, 2, [((0,), (1,), F(1)), ((0, 1), (1, 1), F(1))])
    g = GameDef(n=2, weights=(1, 1), charfun=cf, interaction=InteractionGraph.from_pairs(2, [(0, 1)]))
    for solve in (is_stable_tree, brute_is_stable):
        assert solve(g, CONSERVATIVE, ((1, 0),)) == ((F(1), F(0)),)


def stability_lp(g: GameDef, cs) -> tuple[LinearProgram, dict[tuple[int, int], int]]:
    """The stability LP skeleton as stated, before any presolve: one
    non-negative variable per (coalition index, contributor), in
    ``StabilitySystem``'s order, and one efficiency equality per coalition."""
    var_of = _variables(cs)
    lp = LinearProgram(n_vars=len(var_of), objective=[F(0)] * len(var_of))
    for j, c in enumerate(cs):
        sup = [i for i, w in enumerate(c) if w]
        if sup:
            lp.add_row({var_of[(j, i)]: F(1) for i in sup}, "=", g.charfun.value(c))
    return lp, var_of


def test_presolve_matches_the_full_lp():
    """The presolved system answers as the unpresolved ``stability_lp`` with
    the same individual-rationality rows and cuts does, and its imputation
    satisfies every row of that LP exactly, efficiency included."""
    rng = random.Random(89)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial in range(200):
        g = random_tree_game(rng, nmax=4)
        cs = random_structure(rng, g) if trial % 2 else optval_tree(g, g.weights)[1]
        var_of = _variables(cs)
        cuts = []
        for _ in range(rng.randint(0, 4)):
            coeffs = {v: F(rng.randint(-2, 2)) for v in var_of.values() if rng.random() < 0.5}
            cuts.append((coeffs, F(rng.randint(-8, 4))))
        outcomes[_presolve_agrees(g, cs, cuts)] += 1
    assert min(outcomes.values()) >= 40, outcomes


def _presolve_agrees(g: GameDef, cs, cuts) -> str:
    """Solve the presolved system and ``stability_lp`` with the same
    individual-rationality rows and ``cuts``; assert that they agree and
    that the imputation satisfies every row of the LP exactly.  Returns the
    LP's status."""
    lp, var_of = stability_lp(g, cs)
    system = StabilitySystem(g, CONSERVATIVE, cs)
    rows = ir_rows(g, cs, var_of)
    for coeffs, const in cuts:
        system.add_cut(coeffs, const)
        rows.append((coeffs, const))
    for coeffs, const in rows:
        lp.add_row(coeffs, ">=", const)
    status = solve_lp(lp).status
    imp = system.solve()
    assert (imp is None) == (status == "infeasible")
    if imp is not None:
        x = [F(0)] * lp.n_vars
        for (j, i), v in var_of.items():
            x[v] = imp[j][i]
        for dense, sense, rhs in lp.rows:
            assert row_holds(x, dict(enumerate(dense)), sense, rhs)
        assert min(x, default=F(0)) >= 0
    return status


def test_presolve_keeps_off_scale_constants_exact():
    """On games whose values are not integers, a cut with ``int``
    coefficients whose constant is no multiple of ``1 / charfun.scale`` (as
    a custom rule's payment constant may be) is lifted to the lcm of both
    scales: the system still answers as the unpresolved LP does."""
    rng = random.Random(229)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial in range(120):
        g = _divided(random_tree_game(rng, nmax=4), rng.choice((2, 3)))
        cs = random_structure(rng, g) if trial % 2 else optval_tree(g, g.weights)[1]
        var_of = _variables(cs)
        cuts = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {v: rng.randint(-2, 2) for v in var_of.values() if rng.random() < 0.5}
            cuts.append((coeffs, F(rng.randint(-16, 8), rng.choice((5, 7)))))
        outcomes[_presolve_agrees(g, cs, cuts)] += 1
    assert min(outcomes.values()) >= 25, outcomes


def _divided(g: GameDef, d: int) -> GameDef:
    """The game with every stored value divided by ``d``."""
    rows = [(s, c, v / d) for s, table in g.charfun.entries.items() for c, v in table.items()]
    cf = make_charfun(g.n, g.charfun.k, rows)
    return GameDef(n=g.n, weights=g.weights, charfun=cf, interaction=g.interaction)


def test_stability_rows_reach_the_tableau_as_ints(monkeypatch):
    """Every row the stability system hands its tableau, bound, individual
    rationality or cut, on either lane and under every rule, has ``int``
    coefficients and right-hand side, also when the game's values are not
    integers; only the imputation read back is ``Fraction``."""
    rows = []

    class Recorded(DualSimplex):
        def add_row(self, coeffs, sense, rhs):
            rows.append((coeffs, rhs))
            super().add_row(coeffs, sense, rhs)

    monkeypatch.setattr(stability_module, "DualSimplex", Recorded)
    rng = random.Random(227)
    answers = {"stable": 0, "none": 0}
    for trial in range(60):
        g = _divided(random_tree_game(rng, nmax=4), rng.choice((1, 2, 3, 6)))
        cs = random_structure(rng, g) if trial % 2 else optval_tree(g, g.weights)[1]
        rule = RULES[trial % 4]
        for imp in (is_stable_tree(g, rule, cs), brute_is_stable(g, rule, cs)):
            answers["none" if imp is None else "stable"] += 1
            assert imp is None or all(type(x) is F for row in imp for x in row)
    assert rows and min(answers.values()) >= 20, answers
    for coeffs, rhs in rows:
        assert type(rhs) is int and all(type(a) is int for a in coeffs.values())


def _refined_path(n: int, w: int) -> GameDef:
    """A criterion-9-style path: six pair entries per edge and three solo
    entries per agent, drawn from ``random.Random(7)``."""
    rng = random.Random(7)
    edges = [(i, i + 1) for i in range(n - 1)]
    entries = {}
    for a, b in edges:
        for _ in range(6):
            entries[((a, b), (rng.randint(1, w), rng.randint(1, w)))] = F(rng.randint(1, 100))
    for i in range(n):
        for _ in range(3):
            entries[((i,), (rng.randint(1, w),))] = F(rng.randint(1, 40))
    cf = make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    return GameDef(n=n, weights=(w,) * n, charfun=cf, interaction=InteractionGraph.from_pairs(n, edges))


def test_refined_path_is_stable():
    """Refined Is-Stable on the n=10, W=4 path from its optimal structure:
    the tree and treewidth lanes agree, each imputation passes the other
    lane's CheckCore, and equal payoff rows share one tuple.  Solving its LPs from scratch each round took about
    20 s; the budget here is 10 s."""
    g = _refined_path(10, 4)
    _, cs = optval_tree(g, g.weights)
    td = heuristic_decomposition(g.interaction)
    started = time.perf_counter()
    tree_imp = is_stable_tree(g, REFINED, cs)
    tw_imp = is_stable_tw(g, REFINED, cs, td)
    elapsed = time.perf_counter() - started
    assert tree_imp is not None and tw_imp is not None
    # the structure repeats coalitions, and equal payoff rows are one object
    assert len(set(tree_imp)) < len(tree_imp)
    for imp in (tree_imp, tw_imp):
        assert len({id(row) for row in imp}) == len(set(imp))
    assert checkcore_tw(g, REFINED, Outcome(structure=cs, imputation=tree_imp), td) is None
    assert checkcore_tree(g, REFINED, Outcome(structure=cs, imputation=tw_imp)) is None
    assert elapsed < 10, f"took {elapsed:.1f}s, budget is 10s"


RULES = (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED)


def _repeated_structure(rng: random.Random, g: GameDef) -> tuple[tuple[int, ...], ...]:
    """A pairwise-shaped structure that repeats coalitions on purpose: each
    support drawn takes one vector two or three times, as far as the weights
    allow (a support left without room for two copies is skipped), and copies
    end up apart from each other."""
    remaining = list(g.weights)
    cs = []
    supports = [(i,) for i in range(g.n)] + g.interaction.simple_edges()
    for _ in range(rng.randint(1, g.n + 1)):
        sup = rng.choice(supports)
        c = [0] * g.n
        for i in sup:
            c[i] = rng.randint(1, max(1, remaining[i] // 2))
        copies = min([rng.randint(2, 3)] + [remaining[i] // c[i] for i in sup])
        if copies < 2:
            continue
        for i in sup:
            remaining[i] -= copies * c[i]
        cs.extend([tuple(c)] * copies)
    rng.shuffle(cs)
    return tuple(cs)


def _copies_paid_alike(cs, imp) -> bool:
    first = {}
    return all(first.setdefault(c, x) == x for c, x in zip(cs, imp))


def _unit_game(rng: random.Random, trial: int) -> GameDef:
    """A random tree, cycle or clique game whose entries all take one unit
    per agent, with weights of one to three units: its optimal structures
    repeat coalitions too."""
    unit = (random_tree_game if trial % 2 else random_graph_game)(rng, nmax=5, wmax=1)
    weights = tuple(rng.randint(1, 3) for _ in range(unit.n))
    return GameDef(n=unit.n, weights=weights, charfun=unit.charfun, interaction=unit.interaction)


def test_copies_share_one_payoff_row():
    """On structures that repeat coalitions, optimal ones and ones built to
    repeat, on tree and on cycle or clique games, both lanes answer stable
    or none as the oracle, which solves the full system with a payoff row
    per copy; each lane's imputation pays copies alike, is a valid outcome,
    and passes the other lane's CheckCore."""
    rng = random.Random(97)
    wide = EnumerationBudget(max_agents=10)
    counts = {"stable": 0, "none": 0, "oracle pays copies apart": 0}
    for trial in range(80):
        g = _unit_game(rng, trial)
        td = heuristic_decomposition(g.interaction)
        cs = optval_tw(g, td, g.weights)[1] if trial % 3 else _repeated_structure(rng, g)
        if len(set(cs)) == len(cs):
            continue
        forest = g.interaction.is_forest()
        for rule in RULES:
            tw = is_stable_tw(g, rule, cs, td)
            oracle = brute_is_stable(g, rule, cs, wide)
            lanes = [tw] + ([is_stable_tree(g, rule, cs)] if forest else [])
            assert {imp is None for imp in lanes} == {oracle is None}, (trial, rule.name)
            if oracle is None:
                counts["none"] += 1
                continue
            counts["stable"] += 1
            counts["oracle pays copies apart"] += not _copies_paid_alike(cs, oracle)
            for imp in lanes:
                assert _copies_paid_alike(cs, imp)
                assert validate_outcome(Outcome(structure=cs, imputation=imp), g) == []
            assert (checkcore_tree if forest else brute_checkcore)(
                g, rule, Outcome(structure=cs, imputation=tw)
            ) is None
            if forest:
                assert checkcore_tw(g, rule, Outcome(structure=cs, imputation=lanes[1]), td) is None
    # the oracle's own vertex pays copies apart now and then, so sharing is
    # what pays them alike on the lanes
    assert counts["stable"] >= 100 and counts["none"] >= 40, counts
    assert counts["oracle pays copies apart"] >= 3, counts


def test_split_violation_adds_up():
    """A lane's worst set, split into its connected components: the pieces
    partition the set, each is connected, the excesses add up to the set's,
    and each piece's deviation and post-deviation structure re-check through
    ``deviation_total`` and ``structure_value`` as a witness of its own
    excess."""
    rng = random.Random(101)
    several = 0
    for trial in range(150):
        g = (random_tree_game if trial % 2 else random_graph_game)(rng, nmax=7, wmax=3)
        o = random_outcome(rng, g)
        rule = RULES[trial % 4]
        found = checkcore_tw(g, rule, o)
        if found is None:
            continue
        pieces = split_violation(g, rule, o, found)
        several += len(pieces) > 1
        assert frozenset().union(*(p.agents for p in pieces)) == found.agents
        assert sum(len(p.agents) for p in pieces) == len(found.agents)
        assert all(g.interaction.is_connected_subset(p.agents) for p in pieces)
        assert sum(p.excess for p in pieces) == found.excess
        assert sum(structure_value(g, p.post) for p in pieces) == structure_value(g, found.post)
        for p in pieces:
            total = deviation_total(g, o, p.agents, p.deviation, rule, p.post)
            assert total - o.payoff_to_set(p.agents) == p.excess
    assert several >= 15, several


def test_split_violation_refuses_a_coalition_across_components():
    """Off the pairwise shape a coalition can meet two components of the
    set, and then the excess does not split; that is refused."""
    cf = make_charfun(3, 2, [((0,), (1,), F(1)), ((2,), (1,), F(1))])
    g = GameDef(n=3, weights=(1, 1, 1), charfun=cf, interaction=InteractionGraph.from_pairs(3, [(0, 1), (1, 2)]))
    o = Outcome(structure=((1, 1, 1),), imputation=((F(0),) * 3,))
    v = CoreViolation(frozenset({0, 2}), F(2), Deviation({0: (1, 0, 1)}), ((1, 0, 0), (0, 0, 1)))
    with pytest.raises(ContractViolation, match="meets 2 components"):
        split_violation(g, REFINED, o, v)


def test_cutting_plane_refuses_a_violation_no_component_carries():
    """A separation oracle whose violation no component of its set carries
    (here an excess of 1 claimed for a set that deviates to nothing) is a
    bug in the lane, and the loop says so instead of cycling."""
    g = _g1()
    bogus = CoreViolation(frozenset({0}), F(1), Deviation(), ())
    with pytest.raises(RuntimeError, match="no component"):
        cutting_plane(g, CONSERVATIVE, ((1, 1), (1, 0)), lambda o: bogus, 10)


class _GenerousRefined(RefinedRule):
    """Refined in its ``payment_terms``, but its ``coalition_payoff`` pays
    S its recorded share after a withdrawal too, so the scan sees more
    excess than any cut charges for."""

    def coalition_payoff(self, cf, c, d, xc, deviators):
        return sum((xc[i] for i in deviators), start=F(0))


def test_cutting_plane_refuses_cuts_its_candidate_meets():
    """When the scan and the cut disagree, a round's cuts can all hold at
    the candidate, and adding them would find the same set again until
    ``max_rounds`` (or memory) ran out; the loop raises ``RuntimeError``
    naming the set instead, on both lanes.  The refined rule itself still
    gets the oracle's answer on the same structure within those rounds."""
    g = _g1()
    cs = ((1, 1), (1, 0))
    for solve in (is_stable_tree, is_stable_tw):
        with pytest.raises(RuntimeError, match=r"separated set \[1\] cuts off the candidate") as info:
            solve(g, _GenerousRefined(), cs, max_rounds=10)
        assert not isinstance(info.value, BudgetExceededError)
        assert (solve(g, REFINED, cs, max_rounds=10) is None) == (brute_is_stable(g, REFINED, cs) is None)


def _c9_cycle(n: int, w: int) -> GameDef:
    """A criterion-9-shaped cycle: six distinct pair entries per edge and
    three distinct solo entries per agent, drawn from ``random.Random(7)``."""
    rng = random.Random(7)
    edges = [(i, (i + 1) % n) for i in range(n)]
    entries = {}
    for a, b in sorted(tuple(sorted(e)) for e in edges):
        for x in rng.sample(range(w * w), 6):
            entries[((a, b), (1 + x // w, 1 + x % w))] = F(rng.randint(1, 100))
    for i in range(n):
        for x in rng.sample(range(1, w + 1), min(3, w)):
            entries[((i,), (x,))] = F(rng.randint(1, 40))
    cf = make_charfun(n, 2, [(s, c, v) for (s, c), v in entries.items()])
    return GameDef(n=n, weights=(w,) * n, charfun=cf, interaction=InteractionGraph.from_pairs(n, edges))


def _timed_is_stable(solve, g, rule, cs, budget):
    started = time.perf_counter()
    imp = solve(g, rule, cs)
    elapsed = time.perf_counter() - started
    assert elapsed <= budget, f"{rule.name} took {elapsed:.2f}s, budget is {budget}s"
    return imp


PATH_BUDGETS = [
    (16, REFINED, 0.5), (20, REFINED, 1), (16, OPTIMISTIC_CLAMPED, 0.5),
    (50, CONSERVATIVE, 1), (50, REFINED, 1), (50, OPTIMISTIC, 1), (50, OPTIMISTIC_CLAMPED, 1),
]


@pytest.mark.parametrize(
    "n, rule, budget", PATH_BUDGETS, ids=[f"path-{n}-{rule.name}" for n, rule, _ in PATH_BUDGETS]
)
def test_path_is_stable_at_acceptance_scale(n, rule, budget):
    """Is-Stable on the W=4 path from its optimal structure, within a
    wall-clock budget per call: refined path-16 took 10 s and path-50 over a
    minute before copies shared a payoff row and each component of the
    separated set got its own cut.  The imputation passes the treewidth
    lane's CheckCore."""
    g = _refined_path(n, 4)
    _, cs = optval_tree(g, g.weights)
    imp = _timed_is_stable(is_stable_tree, g, rule, cs, budget)
    assert imp is not None and _copies_paid_alike(cs, imp)
    assert checkcore_tw(g, rule, Outcome(structure=cs, imputation=imp)) is None


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_cycle_is_stable_at_acceptance_scale(rule):
    """Is-Stable on the treewidth lane for the W=4 criterion-9 30-cycle
    from its optimal structure, in 1 s or less per call; refined and clamped
    optimistic took over a minute each before both reductions.  The
    imputation passes CheckCore, which the oracle cannot run at n=30."""
    g = _c9_cycle(30, 4)
    _, cs = optval_tw(g, None, g.weights)
    imp = _timed_is_stable(is_stable_tw, g, rule, cs, 1)
    assert imp is not None and _copies_paid_alike(cs, imp)
    assert checkcore_tw(g, rule, Outcome(structure=cs, imputation=imp)) is None
