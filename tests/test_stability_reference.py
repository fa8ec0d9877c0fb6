"""An Is-Stable reference that shares no code with the lanes.

For games of at most four agents and weight 2, ``reference_is_stable``
writes the stability LP straight from the definitions (Chalkiadakis,
Elkind, Markakis, Polukarov and Jennings 2010, JAIR 39; Zick,
Chalkiadakis, Elkind and Markakis, arXiv 1407.0420) and solves it with
``solve_lp``, which ``test_lp.py`` checks against ``conftest.feasible_vertex``.
Beyond that solver it reads only the game's value table and weights: no
cover table, no withdrawal model, no rule object's payments, no stability
system.  Every deviating set, every withdrawal level and every
post-deviation structure is enumerated by plain loops.

The model, as the definitions state it.  An outcome is a list of
coalitions c^j (contribution vectors) with payoff vectors x^j that pay out
exactly v(c^j), never below zero, to c^j's contributors only.  A set S
deviates by dissolving the coalitions inside S, keeping its unused weight,
and withdrawing d^j <= c^j (on S's members only) from each coalition it
shares with outsiders.  It then forms any structure of what it holds and
collects that structure's value plus what each shared coalition pays it:

* conservative - nothing;
* refined - its recorded share x^j(S) if d^j = 0, else nothing;
* optimistic - what is left of the coalition, v(c^j - d^j), minus what the
  outsiders in it were promised; clamped at zero or not.

An imputation is stable when no deviation pays S more than x(S), and it
also gives each agent at least what its whole weight makes alone
(individual rationality; implied by the core except under the unclamped
optimistic rule, where a payment can be negative).  A payment that is a
maximum of affine forms turns one deviation into one row per choice of
form.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ocf.arbitration import CONSERVATIVE, OPTIMISTIC, OPTIMISTIC_CLAMPED, REFINED
from ocf.core import Outcome, validate_outcome
from ocf.lp import LinearProgram, solve_lp
from ocf.oracle import brute_checkcore, brute_is_stable
from ocf.tree import is_stable_tree
from ocf.treewidth import checkcore_tw, is_stable_tw
from conftest import SHAPES, random_maximal_structure, random_shaped_game

ZERO = Fraction(0)
# the reference knows the rules by name; the objects only go to the lanes
LANE_RULES = {
    "conservative": CONSERVATIVE,
    "refined": REFINED,
    "optimistic": OPTIMISTIC,
    "optimistic-clamped": OPTIMISTIC_CLAMPED,
}


def _value_table(g) -> dict[tuple[int, ...], Fraction]:
    """Every stored coalition as a full vector, with its value."""
    table = {}
    for sup, row in g.charfun.entries.items():
        for contrib, value in row.items():
            c = [0] * g.n
            for i, w in zip(sup, contrib):
                c[i] = w
            table[tuple(c)] = value
    return table


def _best_structure_value(table, avail: tuple[int, ...], memo: dict) -> Fraction:
    """The most any structure of the resources ``avail`` is worth: try
    every coalition of positive value that fits as the next one formed."""
    if avail not in memo:
        best = ZERO
        for c, v in table.items():
            if v > 0 and all(a <= b for a, b in zip(c, avail)):
                rest = tuple(b - a for a, b in zip(c, avail))
                best = max(best, v + _best_structure_value(table, rest, memo))
        memo[avail] = best
    return memo[avail]


def _payment_forms(rule: str, table, c, d, deviators, j):
    """The payment of coalition j (vector c, withdrawal d) to the deviators,
    as affine forms ({(j, i): coefficient}, constant) in the payoff
    variables whose maximum it is."""
    members = [i for i, w in enumerate(c) if w > 0]
    if rule == "conservative":
        return [({}, ZERO)]
    if rule == "refined":
        if any(d):
            return [({}, ZERO)]
        return [({(j, i): 1 for i in members if i in deviators}, ZERO)]
    left = table.get(tuple(a - b for a, b in zip(c, d)), ZERO)
    linear = ({(j, i): -1 for i in members if i not in deviators}, left)
    if rule == "optimistic":
        return [linear]
    assert rule == "optimistic-clamped"
    return [linear, ({}, ZERO)]


def reference_is_stable(g, rule: str, cs) -> tuple | None:
    """A stable imputation of the structure ``cs`` under the named local
    rule, or None when there is none; for n <= 4 and weights <= 2."""
    assert g.n <= 4 and max(g.weights) <= 2
    n = g.n
    table = _value_table(g)
    memo: dict = {}
    members = [[i for i, w in enumerate(c) if w > 0] for c in cs]
    var = {}
    for j, sup in enumerate(members):
        for i in sup:
            var[(j, i)] = len(var)
    rows: dict[frozenset, Fraction] = {}

    def at_least(coeffs: dict, rhs: Fraction) -> None:
        # keep the largest right-hand side per left-hand side
        key = frozenset((var[v], a) for v, a in coeffs.items() if a)
        if key not in rows or rhs > rows[key]:
            rows[key] = rhs

    lp = LinearProgram(n_vars=len(var), objective=[ZERO] * len(var))
    for j, c in enumerate(cs):
        if members[j]:
            lp.add_row({var[(j, i)]: 1 for i in members[j]}, "=", table.get(tuple(c), ZERO))
    for i in range(n):
        alone = tuple(g.weights[i] if k == i else 0 for k in range(n))
        at_least({(j, i): 1 for j in range(len(cs)) if i in members[j]},
                 _best_structure_value(table, alone, memo))
    for size in range(1, n + 1):
        for S in map(frozenset, itertools.combinations(range(n), size)):
            own = {v: 1 for v in var if v[1] in S}
            inside = [j for j in range(len(cs)) if members[j] and set(members[j]) <= S]
            shared = [j for j in range(len(cs)) if set(members[j]) & S and j not in inside]
            holds = [g.weights[i] - sum(c[i] for c in cs) if i in S else 0 for i in range(n)]
            for j in inside:
                for i in members[j]:
                    holds[i] += cs[j][i]
            levels = []
            for j in shared:
                ranges = [range(cs[j][i] + 1) if i in S else range(1) for i in range(n)]
                levels.append(list(itertools.product(*ranges)))
            for ds in itertools.product(*levels):
                avail = tuple(h + sum(d[i] for d in ds) for i, h in enumerate(holds))
                value = _best_structure_value(table, avail, memo)
                forms = [_payment_forms(rule, table, cs[j], d, S, j) for j, d in zip(shared, ds)]
                for choice in itertools.product(*forms):
                    coeffs = dict(own)
                    rhs = value
                    for form, const in choice:
                        for v, a in form.items():
                            coeffs[v] = coeffs.get(v, 0) - a
                        rhs += const
                    at_least(coeffs, rhs)
    for key, rhs in rows.items():
        # with no negative coefficient and rhs <= 0 a row holds at every x >= 0
        if rhs > 0 or any(a < 0 for _, a in key):
            lp.add_row(dict(key), ">=", rhs)
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        return None
    assert sol.status == "optimal"
    imputation = []
    for j in range(len(cs)):
        imputation.append(tuple(sol.x[var[(j, i)]] if (j, i) in var else ZERO for i in range(n)))
    return tuple(imputation)


def test_reference_agrees_with_every_lane():
    """On 100 seeded cases, each under every local rule, the reference and
    the tree (on forests), treewidth and oracle lanes give the same
    stable/none answer.  Every imputation found is valid, individually
    rational included; the reference's passes both CheckCore lanes, and
    each lane's passes the other's.  A case is a game of up to four agents
    and weight 2 on a forest, a triangle, a 4-cycle with or without a chord,
    or K4, with a random maximal structure or the best of eight.  Only
    optimal structures can be stable, and on some of those the answer
    depends on the rule."""
    rng = random.Random(2024)
    shapes = [shape for shape, (n, _) in SHAPES.items() if n <= 4]
    tally = {rule: [0, 0] for rule in LANE_RULES}
    rule_dependent = 0
    for k in range(100):
        g = random_shaped_game(rng, shapes[k % len(shapes)])
        cs = random_maximal_structure(rng, g, tries=(1, 8)[k % 2])
        verdicts = set()
        for rule, lane_rule in LANE_RULES.items():
            ref = reference_is_stable(g, rule, cs)
            tw, oracle = is_stable_tw(g, lane_rule, cs), brute_is_stable(g, lane_rule, cs, None)
            answers = [tw, oracle]
            if g.interaction.is_forest():
                answers.append(is_stable_tree(g, lane_rule, cs))
            assert [a is None for a in answers] == [ref is None] * len(answers), (k, rule)
            tally[rule][ref is None] += 1
            verdicts.add(ref is None)
            if ref is not None:
                checks = ((checkcore_tw, ref), (brute_checkcore, ref),
                          (checkcore_tw, oracle), (brute_checkcore, tw))
                for checkcore, imp in checks:
                    o = Outcome(structure=cs, imputation=imp)
                    assert validate_outcome(o, g) == [], (k, rule)
                    assert checkcore(g, lane_rule, o) is None, (k, rule, checkcore.__name__)
        rule_dependent += len(verdicts) == 2
    for rule, (stable, none) in tally.items():
        assert stable >= 20 and none >= 20, (rule, stable, none)
    assert rule_dependent >= 1
