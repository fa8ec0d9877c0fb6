"""The deviation model every lane and the oracle share, against plain loops.

``core.mixed_indices`` and ``arbitration.deviation_available`` sit under the
tree, treewidth and oracle lanes alike, so a differential test between the
lanes cannot see a fault in them.  The references here are written from the
definitions, share no code with the package beyond ``Deviation`` and the
game's weights, and run on random structures, sets and deviations, over
pairwise games and games with three-agent coalitions.
"""

import random

from conftest import random_graph_game, random_k3_game, random_k_outcome, random_structure, random_tree_game
from ocf.arbitration import Deviation, deviation_available
from ocf.core import mixed_indices


def reference_mixed(cs, agents):
    """The coalitions with a contributor inside ``agents`` and one outside."""
    out = []
    for j, c in enumerate(cs):
        inside = outside = False
        for i, units in enumerate(c):
            if units > 0:
                if i in agents:
                    inside = True
                else:
                    outside = True
        if inside and outside:
            out.append(j)
    return out


def reference_available(weights, cs, agents, withdrawals):
    """What ``agents`` may use after deviating: per member, its unused
    weight, plus its units in the coalitions it shares with no outsider,
    plus what it withdraws from the coalitions it shares with one; 0 for an
    outsider."""
    out = []
    for i, w in enumerate(weights):
        if i not in agents:
            out.append(0)
            continue
        have = w
        for c in cs:
            have -= c[i]
        for j, c in enumerate(cs):
            members = [k for k, units in enumerate(c) if units > 0]
            if members and all(k in agents for k in members):
                have += c[i]
            elif any(k in agents for k in members) and j in withdrawals:
                have += withdrawals[j][i]
        out.append(have)
    return tuple(out)


def _cases(rng):
    """A game, one of its structures (sometimes with an empty coalition
    added), every set of its agents and a random deviation of each set:
    a withdrawal within the set's share of some mixed coalitions."""
    kind = rng.randrange(3)
    if kind == 2:
        g = random_k3_game(rng)
        cs = random_k_outcome(rng, g).structure
    else:
        g = (random_graph_game if kind else random_tree_game)(rng, nmax=5)
        cs = random_structure(rng, g)
    if cs and rng.random() < 0.2:
        cs = cs + ((0,) * g.n,)
    for mask in range(1 << g.n):
        agents = frozenset(i for i in range(g.n) if mask >> i & 1)
        withdrawals = {}
        for j in reference_mixed(cs, agents):
            if rng.random() < 0.7:
                withdrawals[j] = tuple(
                    rng.randint(0, u) if i in agents else 0 for i, u in enumerate(cs[j])
                )
        yield g, cs, agents, withdrawals


def test_mixed_indices_are_the_coalitions_shared_with_outsiders():
    rng = random.Random(61)
    seen = set()
    for _ in range(300):
        for g, cs, agents, _ in _cases(rng):
            got = mixed_indices(cs, agents)
            assert got == reference_mixed(cs, agents), (cs, agents)
            seen.add((bool(got), len(got) < len(cs)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_deviation_available_counts_own_unused_and_withdrawn_units():
    rng = random.Random(67)
    withdrew = 0
    for _ in range(300):
        for g, cs, agents, withdrawals in _cases(rng):
            want = reference_available(g.weights, cs, agents, withdrawals)
            assert deviation_available(g, cs, agents, Deviation(withdrawals)) == want, (cs, agents)
            assert deviation_available(g, cs, agents, Deviation()) == reference_available(
                g.weights, cs, agents, {}
            )
            withdrew += any(map(any, withdrawals.values()))
    assert withdrew >= 500
