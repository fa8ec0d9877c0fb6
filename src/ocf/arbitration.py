"""Arbitration functions: what non-deviators pay a deviating set.

A deviation of a set S from an outcome withdraws resources from coalitions
that S shares with outsiders.  Each arbitration rule maps a withdrawal pattern
to per-coalition payments back to S:

* conservative  - deviators receive nothing, ever.
* refined       - an untouched coalition keeps paying S its recorded share;
                  a touched one pays nothing.
* optimistic    - each coalition pays its residual value after the withdrawal,
                  minus what the non-deviators were promised; optionally
                  clamped below at zero (both variants ship, see the rule's
                  ``clamped`` flag).
* sensitive     - like refined, but a coalition also refuses to pay if any of
                  its members was hurt by the deviation elsewhere.  Non-local:
                  the payment from one coalition depends on withdrawals from
                  others.  Hurt status is single-hop: sharing a coalition with
                  a hurt agent does not itself make an agent hurt.

Conservative, refined and optimistic are *local*: the payment from a coalition
depends only on that coalition's own withdrawal, its payoff vector, S and the
game.  Only local rules are accepted by the tree and treewidth solvers.  Each
local rule also states its payment through ``payment_terms``, as affine forms
in the coalition's payoff entries whose maximum is the payment; the stability
LP of :mod:`ocf.stability` reads its rows from them.  Each also lists the
withdrawals that bind in those rows (``withdrawal_menu``), so the oracle's
full system knows no rule by name.

``deviation_payoffs`` pays S from the "mixed" coalitions alone, those it
shares with outsiders (``core.mixed_indices``); its docstring says why no
other coalition pays.

What a deviating set may use is one identity (``deviation_available``).  S
keeps the coalitions it owns and its unused weight, and adds what it
withdraws from the coalitions it shares with outsiders ("mixed"
coalitions).  Its own coalitions and unused weight are its weight minus its
share of the mixed coalitions, so for i in S

    available_i = w_i - sum over mixed j of (c_j[i] - d_j[i]),

and 0 outside S.  A coalition is owned by S when its support lies inside S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .core import (
    ZERO,
    Coalition,
    CoalitionStructure,
    CharacteristicFunction,
    ContractViolation,
    GameDef,
    Outcome,
    PayoffVector,
    _require_agents,
    mixed_indices,
    reach,
    require_outcome,
    structure_weight,
    support,
    vec_leq,
    vec_sub,
    zero_coalition,
)


# One affine form of a payment: (coefficient per agent, constant).
PaymentTerm = tuple[dict[int, int], Fraction]


class UnsupportedRuleError(ValueError):
    """A solver was handed an arbitration rule it cannot handle."""


@dataclass(frozen=True)
class Deviation:
    """Withdrawals of a deviating set, keyed by coalition index.

    Keys index into the outcome's structure and must refer to coalitions
    outside CS|_S (coalitions fully owned by S are freely available and are
    never "withdrawn from").  A missing key means zero withdrawal.  Fully
    abandoning a coalition is expressed as withdrawing the deviators' entire
    contribution; there is no separate abandonment flag.
    """

    withdrawals: dict[int, Coalition] = field(default_factory=dict)

    def withdrawal(self, j: int, n: int) -> Coalition:
        return self.withdrawals.get(j, zero_coalition(n))


def withdrawal_options(g: GameDef, c: Coalition, deviators: frozenset[int]) -> list[Coalition]:
    """Every vector S may withdraw from the coalition ``c``, zero vector
    first, in lexicographic order over S's contributors.  A withdrawal by
    one agent is the game's own solo vector, so witnesses share it."""
    coords = sorted(support(c) & deviators)
    solo = g._solo_vectors
    out = []
    for amounts in product(*[range(c[i] + 1) for i in coords]):
        moved = [(i, u) for i, u in zip(coords, amounts) if u]
        if len(moved) == 1 and moved[0] in solo:
            out.append(solo[moved[0]])
            continue
        w = [0] * g.n
        for i, u in moved:
            w[i] = u
        out.append(tuple(w))
    return out


def _full_withdrawal(c: Coalition, deviators: frozenset[int]) -> Coalition:
    """Everything S puts into ``c``: the last of ``withdrawal_options``."""
    return tuple(x if i in deviators else 0 for i, x in enumerate(c))


@dataclass(frozen=True)
class CoreViolation:
    """Witness that an outcome is not in the core."""

    agents: frozenset[int]
    excess: Fraction
    deviation: Deviation
    post: CoalitionStructure


def split_violation(
    g: GameDef, rule: LocalArbitrationRule, o: Outcome, v: CoreViolation
) -> list[CoreViolation]:
    """``v`` split over the connected components of its set in the
    interaction graph, smallest agent first: each component keeps the
    withdrawals whose vector touches it and the post-deviation coalitions
    inside it, and its excess is scored under ``rule``.

    On a pairwise-shaped outcome no coalition of the outcome or of ``v.post``
    meets two components, so each piece is a legal deviation of its
    component and the excesses add up to ``v.excess``.  A coalition that
    meets two components raises ``ContractViolation``.  Checks nothing else:
    ``v`` is a lane's witness on a checked outcome."""
    adjacency = g.interaction._adjacency
    part: dict[int, int] = {}
    parts: list[frozenset[int]] = []
    for a in sorted(v.agents):
        if a not in part:
            parts.append(frozenset(reach(adjacency, a, within=v.agents)))
            part.update(dict.fromkeys(parts[-1], len(parts) - 1))

    def part_of(sup: frozenset[int]) -> int:
        met = {part[i] for i in sup & v.agents}
        if len(met) != 1:
            raise ContractViolation(
                f"a coalition on agents {sorted(sup)} meets {len(met)} components of the deviating set"
            )
        return met.pop()

    withdrawals: list[dict[int, Coalition]] = [{} for _ in parts]
    post: list[list[Coalition]] = [[] for _ in parts]
    excess = [ZERO] * len(parts)
    for j, d in v.deviation.withdrawals.items():
        if any(d):
            withdrawals[part_of(support(d))][j] = d
    for c in v.post:
        sup = support(c)
        if sup:
            k = part_of(sup)
            post[k].append(c)
            excess[k] += g.charfun.value(c)
    for x, sup in zip(o.imputation, o.supports):
        for i in sup & v.agents:
            excess[part[i]] -= x[i]
    devs = [Deviation(w) for w in withdrawals]
    for j in mixed_indices(o.structure, v.agents):
        c = o.structure[j]
        k = part_of(o.supports[j])
        excess[k] += rule.coalition_payoff(
            g.charfun, c, devs[k].withdrawal(j, g.n), o.imputation[j], parts[k]
        )
    return [CoreViolation(*piece) for piece in zip(parts, excess, devs, map(tuple, post))]


def validate_deviation(o: Outcome, deviators: frozenset[int], dev: Deviation, n: int) -> None:
    """Raise ContractViolation unless ``dev`` is a legal deviation of S from o."""
    for j, d in dev.withdrawals.items():
        if not (0 <= j < len(o.structure)):
            raise ContractViolation(f"withdrawal index {j} out of range")
        if o.supports[j] <= deviators:
            raise ContractViolation(f"coalition {j} is owned by the deviators; nothing to withdraw")
        c = o.structure[j]
        if len(d) != n:
            raise ContractViolation(f"withdrawal {j} has wrong dimension")
        if any(w < 0 for w in d):
            raise ContractViolation(f"withdrawal {j} has a negative coordinate")
        if not vec_leq(d, c):
            raise ContractViolation(f"withdrawal {j} exceeds the coalition")
        if not support(d) <= deviators:
            raise ContractViolation(f"withdrawal {j} touches a non-deviator's contribution")


class ArbitrationRule:
    name: str = "abstract"

    def deviation_payoffs(
        self,
        game: GameDef,
        outcome: Outcome,
        deviators: frozenset[int],
        dev: Deviation,
    ) -> dict[int, Fraction]:
        """Payment to S from each coalition it shares with outsiders, keyed by
        index (``core.mixed_indices``).  No other coalition pays S: an outcome
        past ``core.require_outcome`` pays no one outside a coalition's
        support and hands out exactly its value, so a coalition with no
        member in S pays S nothing under every rule."""
        raise NotImplementedError


class LocalArbitrationRule(ArbitrationRule):
    """Rule whose per-coalition payment sees only that coalition's withdrawal."""

    def coalition_payoff(
        self,
        cf: CharacteristicFunction,
        c: Coalition,
        d: Coalition,
        xc: PayoffVector,
        deviators: frozenset[int],
    ) -> Fraction:
        raise NotImplementedError

    def payment_terms(
        self,
        cf: CharacteristicFunction,
        c: Coalition,
        d: Coalition,
        deviators: frozenset[int],
    ) -> tuple[PaymentTerm, ...]:
        """The payment as affine forms (coefficient per agent, constant) in
        the coalition's payoff entries: at any xc that is zero outside
        support(c), ``coalition_payoff`` is the largest form's value."""
        raise NotImplementedError

    def withdrawal_menu(
        self, g: GameDef, c: Coalition, deviators: frozenset[int]
    ) -> list[Coalition]:
        """The withdrawals from the mixed coalition ``c`` that bind in this
        rule's stability rows: each withdrawal left off frees no more, and
        is paid no more, than one listed.  The default lists every
        withdrawal, which is exact for any local rule."""
        return withdrawal_options(g, c, deviators)

    def deviation_payoffs(self, game, outcome, deviators, dev):
        n = game.n
        cs, imp = outcome.structure, outcome.imputation
        return {
            j: self.coalition_payoff(game.charfun, cs[j], dev.withdrawal(j, n), imp[j], deviators)
            for j in mixed_indices(cs, deviators)
        }


class ConservativeRule(LocalArbitrationRule):
    name = "conservative"

    def coalition_payoff(self, cf, c, d, xc, deviators):
        return ZERO

    def payment_terms(self, cf, c, d, deviators):
        return (({}, ZERO),)

    def withdrawal_menu(self, g, c, deviators):
        # the payment never moves, so freeing the most binds
        return [_full_withdrawal(c, deviators)]


class RefinedRule(LocalArbitrationRule):
    name = "refined"

    def coalition_payoff(self, cf, c, d, xc, deviators):
        if any(w != 0 for w in d):
            return ZERO
        return sum((xc[i] for i in deviators), start=ZERO)

    def payment_terms(self, cf, c, d, deviators):
        if any(d):
            return (({}, ZERO),)
        return (({i: 1 for i in support(c) & deviators}, ZERO),)

    def withdrawal_menu(self, g, c, deviators):
        # the payment tells only zero from nonzero withdrawal
        return [zero_coalition(g.n), _full_withdrawal(c, deviators)]


class OptimisticRule(LocalArbitrationRule):
    """Residual value minus the non-deviators' recorded payoffs.

    The unclamped variant charges deviators the full marginal damage (the
    payment can be negative); the clamped variant floors it at zero
    per coalition.
    """

    def __init__(self, clamped: bool):
        self.clamped = clamped
        self.name = "optimistic-clamped" if clamped else "optimistic"

    def coalition_payoff(self, cf, c, d, xc, deviators):
        remainder = vec_sub(c, d)
        owed = sum((x for i, x in enumerate(xc) if x and i not in deviators), start=ZERO)
        pay = cf.value(remainder) - owed
        if self.clamped and pay < 0:
            return ZERO
        return pay

    def payment_terms(self, cf, c, d, deviators):
        linear = ({i: -1 for i in support(c) - deviators}, cf.value(vec_sub(c, d)))
        return (linear, ({}, ZERO)) if self.clamped else (linear,)


class SensitiveRule(ArbitrationRule):
    name = "sensitive"

    def deviation_payoffs(self, game, outcome, deviators, dev):
        require_outcome(game, outcome)
        touched = {j for j, d in dev.withdrawals.items() if any(d)}
        hurt = set().union(*(outcome.supports[j] for j in touched)) - deviators
        out: dict[int, Fraction] = {}
        for j in mixed_indices(outcome.structure, deviators):
            if j in touched or (outcome.supports[j] & hurt):
                out[j] = ZERO
            else:
                out[j] = sum((outcome.imputation[j][i] for i in deviators), start=ZERO)
        return out


CONSERVATIVE = ConservativeRule()
REFINED = RefinedRule()
OPTIMISTIC = OptimisticRule(clamped=False)
OPTIMISTIC_CLAMPED = OptimisticRule(clamped=True)
SENSITIVE = SensitiveRule()

_RULES = {
    r.name: r for r in (CONSERVATIVE, REFINED, OPTIMISTIC, OPTIMISTIC_CLAMPED, SENSITIVE)
}


def rule_from_name(name: str) -> ArbitrationRule:
    try:
        return _RULES[name]
    except KeyError:
        raise UnsupportedRuleError(f"unknown arbitration rule {name!r}") from None


def require_local(rule: ArbitrationRule) -> None:
    """Raise ``UnsupportedRuleError`` unless ``rule`` is local: the DP lanes,
    the local withdrawal DP and the stability system need a payment that
    depends on one coalition at a time."""
    if not isinstance(rule, LocalArbitrationRule):
        raise UnsupportedRuleError(f"this solver needs a local rule, not {rule.name!r}")


def local_payoff(
    rule: LocalArbitrationRule,
    c: Coalition,
    d: Coalition,
    xc: PayoffVector,
    deviators: frozenset[int],
    cf: CharacteristicFunction,
) -> Fraction:
    """Single-coalition payment under a local rule, with precondition checks."""
    require_local(rule)
    if len(xc) != len(c):
        raise ContractViolation("payoff vector and coalition differ in length")
    if len(d) != len(c):
        raise ContractViolation("withdrawal and coalition differ in length")
    if not vec_leq(d, c):
        raise ContractViolation("withdrawal exceeds the coalition")
    if not support(d) <= deviators:
        raise ContractViolation("withdrawal touches a non-deviator's contribution")
    return rule.coalition_payoff(cf, c, d, xc, deviators)


def sensitive_payoffs(
    game: GameDef, o: Outcome, deviators: frozenset[int], dev: Deviation
) -> dict[int, Fraction]:
    """Per-coalition payments under the sensitive rule."""
    _require_agents(game.n, deviators)
    require_outcome(game, o)
    validate_deviation(o, deviators, dev, game.n)
    return SENSITIVE.deviation_payoffs(game, o, deviators, dev)


def deviation_available(
    game: GameDef, cs: CoalitionStructure, deviators: frozenset[int], dev: Deviation
) -> Coalition:
    """What S may use after deviating from the structure ``cs`` by ``dev``:
    its own coalitions, its unused weight and what it withdraws.

    For i in S that is w_i minus what S leaves in the mixed coalitions,
    w_i - sum over mixed j of (c_j[i] - d_j[i]), because i's own coalitions
    and unused weight add up to w_i minus its share of the mixed ones; 0
    outside S.  With an empty deviation it is what S may use before any
    withdrawal, and each withdrawal adds to it, so a caller trying many
    withdrawal profiles of one set derives it once.
    """
    n = game.n
    avail = [w if i in deviators else 0 for i, w in enumerate(game.weights)]
    for j in mixed_indices(cs, deviators):
        c, d = cs[j], dev.withdrawal(j, n)
        for i in deviators:
            avail[i] -= c[i] - d[i]
    return tuple(avail)


def deviation_total(
    game: GameDef,
    o: Outcome,
    deviators: frozenset[int],
    dev: Deviation,
    arb: ArbitrationRule,
    post: CoalitionStructure,
) -> Fraction:
    """Total payoff S collects: value of the new structure plus arbitration.

    ``post`` must fit inside what S may use (``deviation_available``) and be
    supported entirely inside S; the outcome passes ``core.require_outcome``.
    """
    _require_agents(game.n, deviators)
    require_outcome(game, o)
    validate_deviation(o, deviators, dev, game.n)
    avail = deviation_available(game, o.structure, deviators, dev)
    used = structure_weight(post, game.n)
    if not vec_leq(used, avail):
        raise ContractViolation(f"post structure uses {used}, only {avail} available")
    for c in post:
        if not support(c) <= deviators:
            raise ContractViolation("post structure contains a non-deviator")
    payments = arb.deviation_payoffs(game, o, deviators, dev)
    value = sum((game.charfun.value(c) for c in post), start=ZERO)
    return value + sum(payments.values(), start=ZERO)
