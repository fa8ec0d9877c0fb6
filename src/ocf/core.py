"""Domain types for discrete overlapping-coalition games.

Agents are 0-based indices.  A coalition is a plain tuple of non-negative
integer contributions, one per agent; a coalition structure is a tuple of such
tuples (multiset semantics: duplicates allowed, order preserved but
irrelevant to value).  All payoffs and characteristic values are exact
:class:`fractions.Fraction` objects; there is no floating point anywhere.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Coalition = tuple[int, ...]
CoalitionStructure = tuple[Coalition, ...]
PayoffVector = tuple[Fraction, ...]
Imputation = tuple[PayoffVector, ...]

ZERO = Fraction(0)


class ContractViolation(ValueError):
    """A caller broke an operation precondition (dimension mismatch etc.)."""


def support(c: Coalition) -> frozenset[int]:
    """Agents contributing a positive amount to the coalition."""
    return frozenset(i for i, w in enumerate(c) if w > 0)


def indicator(agents: Iterable[int], n: int) -> Coalition:
    """0/1 coalition with ones exactly on ``agents``."""
    s = set(agents)
    return tuple(1 if i in s else 0 for i in range(n))


def restrict(c: Coalition, agents: Iterable[int]) -> Coalition:
    """Zero out every coordinate outside ``agents``."""
    s = set(agents)
    return tuple(w if i in s else 0 for i, w in enumerate(c))


def vec_add(a: Coalition, b: Coalition) -> Coalition:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Coalition, b: Coalition) -> Coalition:
    return tuple(x - y for x, y in zip(a, b))


def vec_leq(a: Coalition, b: Coalition) -> bool:
    return all(x <= y for x, y in zip(a, b))


def zero_coalition(n: int) -> Coalition:
    return (0,) * n


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected graph of allowed pairwise agent interactions.

    Self-loops are accepted and ignored by connectivity logic: singleton
    supports are always connected.
    """

    n: int
    edges: frozenset[frozenset[int]]

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[Sequence[int]]) -> "InteractionGraph":
        edges = set()
        for pair in pairs:
            if len(pair) != 2:
                raise ContractViolation(f"edge must have 2 endpoints: {pair!r}")
            a, b = int(pair[0]), int(pair[1])
            if not (0 <= a < n and 0 <= b < n):
                raise ContractViolation(f"edge endpoint out of range: {pair!r}")
            edges.add(frozenset((a, b)))
        return InteractionGraph(n, frozenset(edges))

    def simple_edges(self) -> list[tuple[int, int]]:
        """Non-loop edges as sorted (a, b) pairs, a < b, deterministic order."""
        out = []
        for e in self.edges:
            if len(e) == 2:
                a, b = sorted(e)
                out.append((a, b))
        return sorted(out)

    def neighbors(self, i: int) -> list[int]:
        out = set()
        for a, b in self.simple_edges():
            if a == i:
                out.add(b)
            elif b == i:
                out.add(a)
        return sorted(out)

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges

    def is_connected_subset(self, agents: frozenset[int]) -> bool:
        """True iff ``agents`` induces a connected subgraph (singletons count)."""
        if len(agents) <= 1:
            return True
        agents = set(agents)
        seen = {next(iter(agents))}
        frontier = list(seen)
        while frontier:
            v = frontier.pop()
            for u in agents:
                if u not in seen and self.has_edge(v, u):
                    seen.add(u)
                    frontier.append(u)
        return seen == agents

    def components(self) -> list[list[int]]:
        """Connected components over all n vertices, each sorted ascending."""
        seen: set[int] = set()
        comps = []
        adj: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for a, b in self.simple_edges():
            adj[a].add(b)
            adj[b].add(a)
        for start in range(self.n):
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def is_forest(self) -> bool:
        """True iff the simple-edge graph is acyclic (self-loops ignored)."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.simple_edges():
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True


@dataclass(frozen=True)
class CharacteristicFunction:
    """Sparse k-OCF characteristic function.

    Entries are keyed by (sorted support tuple) -> (contribution tuple parallel
    to the support) -> value.  Unlisted coalitions evaluate to 0, which makes
    the function total; coalitions with more than k contributors are 0 by
    definition and may not be stored.
    """

    n: int
    k: int
    entries: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for sup, table in self.entries.items():
            if len(sup) == 0 or list(sup) != sorted(set(sup)):
                raise ContractViolation(f"support must be sorted, non-empty, duplicate-free: {sup}")
            if len(sup) > self.k:
                raise ContractViolation(f"support {sup} exceeds k={self.k}")
            if any(i < 0 or i >= self.n for i in sup):
                raise ContractViolation(f"support {sup} out of range for n={self.n}")
            for contrib, value in table.items():
                if len(contrib) != len(sup) or any(w <= 0 for w in contrib):
                    raise ContractViolation(f"contribution {contrib} invalid for support {sup}")
                if value < 0:
                    raise ContractViolation(f"negative value {value} at {sup}/{contrib}")

    def value(self, c: Coalition) -> Fraction:
        """Evaluate the coalition; 0 for unlisted or oversized supports."""
        if len(c) != self.n:
            raise ContractViolation(f"coalition has length {len(c)}, expected {self.n}")
        sup = tuple(i for i, w in enumerate(c) if w > 0)
        if len(sup) > self.k:
            return ZERO
        table = self.entries.get(sup)
        if table is None:
            return ZERO
        contrib = tuple(c[i] for i in sup)
        return table.get(contrib, ZERO)

    def atoms(self) -> list[tuple[Coalition, Fraction]]:
        """All positive-valued stored coalitions as full-length vectors."""
        return self._atoms_of(sorted(self.entries))

    def atoms_within(self, agents: frozenset[int]) -> list[tuple[Coalition, Fraction]]:
        """Positive-valued stored coalitions whose support is inside ``agents``."""
        return self._atoms_of(sorted(sup for sup in self.entries if agents.issuperset(sup)))

    def _atoms_of(self, sups: list[tuple[int, ...]]) -> list[tuple[Coalition, Fraction]]:
        out = []
        for sup in sups:
            for contrib, value in sorted(self.entries[sup].items()):
                if value > 0:
                    c = [0] * self.n
                    for i, w in zip(sup, contrib):
                        c[i] = w
                    out.append((tuple(c), value))
        return out


def make_charfun(
    n: int,
    k: int,
    entries: Iterable[tuple[Sequence[int], Sequence[int], Fraction | int]],
) -> CharacteristicFunction:
    """Build a characteristic function from (support, contribution, value) rows."""
    table: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for sup, contrib, value in entries:
        key = tuple(int(i) for i in sup)
        row = table.setdefault(key, {})
        ckey = tuple(int(w) for w in contrib)
        if ckey in row:
            raise ContractViolation(f"duplicate entry for support {key}, contribution {ckey}")
        row[ckey] = Fraction(value)
    return CharacteristicFunction(n=n, k=k, entries=table)


def evaluate(cf: CharacteristicFunction, c: Coalition) -> Fraction:
    """Total evaluation of a coalition (module-level alias of ``cf.value``)."""
    return cf.value(c)


@dataclass(frozen=True)
class GameDef:
    """A discrete OCF game: agent weights plus a k-OCF characteristic function.

    When an interaction graph is attached, the characteristic function must
    already respect it: every positive-valued support induces a connected
    subgraph (apply :func:`myerson_restrict` first if needed).
    """

    n: int
    weights: tuple[int, ...]
    charfun: CharacteristicFunction
    interaction: InteractionGraph | None = None

    def __post_init__(self) -> None:
        if len(self.weights) != self.n:
            raise ContractViolation("weights length must equal n")
        if any(w < 1 for w in self.weights):
            raise ContractViolation("all agent weights must be >= 1")
        if self.charfun.n != self.n:
            raise ContractViolation("characteristic function dimension mismatch")
        if self.interaction is not None:
            if self.interaction.n != self.n:
                raise ContractViolation("interaction graph dimension mismatch")
            for c, _ in self.charfun.atoms():
                if not self.interaction.is_connected_subset(support(c)):
                    raise ContractViolation(
                        f"entry with disconnected support {sorted(support(c))};"
                        " apply myerson_restrict first"
                    )

    @property
    def w_max(self) -> int:
        return max(self.weights)

    def check_coalition(self, c: Coalition) -> None:
        if len(c) != self.n:
            raise ContractViolation(f"coalition length {len(c)} != n={self.n}")
        if any(w < 0 for w in c):
            raise ContractViolation("negative contribution")
        if not vec_leq(c, self.weights):
            raise ContractViolation(f"coalition {c} exceeds weights {self.weights}")


def myerson_restrict(cf: CharacteristicFunction, g: InteractionGraph) -> CharacteristicFunction:
    """Drop every entry whose support is disconnected in ``g``.

    Idempotent; singleton supports always survive.
    """
    if cf.n != g.n:
        raise ContractViolation("dimension mismatch between charfun and graph")
    kept: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for sup, table in cf.entries.items():
        if g.is_connected_subset(frozenset(sup)):
            kept[sup] = dict(table)
    return CharacteristicFunction(n=cf.n, k=cf.k, entries=kept)


def structure_weight(cs: CoalitionStructure, n: int) -> Coalition:
    """Componentwise sum of the structure's coalitions."""
    total = [0] * n
    for c in cs:
        for i, w in enumerate(c):
            total[i] += w
    return tuple(total)


def structure_value(g: GameDef, cs: CoalitionStructure) -> Fraction:
    return sum((g.charfun.value(c) for c in cs), start=ZERO)


def check_structure(g: GameDef, cs: CoalitionStructure) -> None:
    """Raise unless the structure is feasible for the game's endowments."""
    for c in cs:
        if len(c) != g.n or any(w < 0 for w in c):
            raise ContractViolation(f"malformed coalition {c}")
    if not vec_leq(structure_weight(cs, g.n), g.weights):
        raise ContractViolation("structure exceeds agent endowments")


def reduce_structure(cs: CoalitionStructure, agents: Iterable[int]) -> CoalitionStructure:
    """Sublist of coalitions fully supported inside ``agents`` (order kept)."""
    s = frozenset(agents)
    return tuple(c for c in cs if support(c) <= s)


def reduce_structure_indices(cs: CoalitionStructure, agents: Iterable[int]) -> list[int]:
    """Indices into ``cs`` of the coalitions fully supported inside ``agents``."""
    s = frozenset(agents)
    return [j for j, c in enumerate(cs) if support(c) <= s]


@dataclass(frozen=True)
class Outcome:
    """A coalition structure together with per-coalition payoff vectors."""

    structure: CoalitionStructure
    imputation: Imputation

    def __post_init__(self) -> None:
        if len(self.structure) != len(self.imputation):
            raise ContractViolation("imputation length must match structure length")

    def payoff_to_agent(self, i: int) -> Fraction:
        return sum((x[i] for x in self.imputation), start=ZERO)

    def payoff_to_set(self, agents: Iterable[int]) -> Fraction:
        s = set(agents)
        return sum((self.payoff_to_agent(i) for i in s), start=ZERO)


def payoff_to_set(o: Outcome, agents: Iterable[int]) -> Fraction:
    """Total payoff the agent set collects across all coalitions."""
    return o.payoff_to_set(agents)


def validate_outcome(o: Outcome, g: GameDef, ir_mode: str = "full-endowment") -> list[str]:
    """Check every outcome invariant; returns one message per violation.

    ``ir_mode`` picks the individual-rationality baseline: "full-endowment"
    compares against the best an agent can do with its whole weight,
    "unit" against a single unit of it.  Violations are data, not errors:
    an empty list means the outcome is valid.
    """
    from .oracle import superadditive_cover  # cycle-free at call time

    if ir_mode not in ("full-endowment", "unit"):
        raise ContractViolation(f"unknown ir_mode {ir_mode!r}")
    problems: list[str] = []
    cs, imp = o.structure, o.imputation
    for j, c in enumerate(cs):
        if len(c) != g.n:
            problems.append(f"coalition {j}: length {len(c)} != n={g.n}")
            return problems
        if any(w < 0 for w in c):
            problems.append(f"coalition {j}: negative contribution")
    total = structure_weight(cs, g.n)
    for i in range(g.n):
        if total[i] > g.weights[i]:
            problems.append(
                f"feasibility: agent {i} contributes {total[i]} > weight {g.weights[i]}"
            )
    for j, (c, x) in enumerate(zip(cs, imp)):
        if len(x) != g.n:
            problems.append(f"payoff vector {j}: length {len(x)} != n={g.n}")
            continue
        if any(v < 0 for v in x):
            problems.append(f"payoff vector {j}: negative payoff")
        paid = sum(x, start=ZERO)
        want = g.charfun.value(c)
        if paid != want:
            problems.append(f"efficiency: coalition {j} pays {paid}, value is {want}")
        sup = support(c)
        for i in range(g.n):
            if x[i] > 0 and i not in sup:
                problems.append(f"no-side-payments: coalition {j} pays agent {i} outside support")
    for i in range(g.n):
        if ir_mode == "full-endowment":
            baseline_vec = tuple(g.weights[i] if j == i else 0 for j in range(g.n))
        else:
            baseline_vec = tuple(1 if j == i else 0 for j in range(g.n))
        baseline, _ = superadditive_cover(g, baseline_vec, budget=None)
        got = o.payoff_to_agent(i)
        if got < baseline:
            problems.append(
                f"individual rationality: agent {i} gets {got} < solo value {baseline}"
            )
    return problems
