"""Domain types for discrete overlapping-coalition games.

Agents are 0-based indices.  A coalition is a plain tuple of non-negative
integer contributions, one per agent; a coalition structure is a tuple of such
tuples (multiset semantics: duplicates allowed, order preserved but
irrelevant to value).  All payoffs and characteristic values are exact
:class:`fractions.Fraction` objects; there is no floating point anywhere.

Everything here is immutable after construction and safe to share across
threads.  Per-game tables are built on first use and kept, so editing
``charfun.entries`` afterwards is unsupported.

An outcome that passes ``require_outcome``, the one outcome check of every
solver, records the game it passed for beside its cached supports; it is no
field, so ``==``, ``hash`` and ``io.outcome_to_dict`` never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import le, sub
from typing import Container, Iterable, Mapping, Sequence

from .covers import _denominator, _frontier, _scaled, single_cover

Coalition = tuple[int, ...]
CoalitionStructure = tuple[Coalition, ...]
PayoffVector = tuple[Fraction, ...]
Imputation = tuple[PayoffVector, ...]

ZERO = Fraction(0)


class ContractViolation(ValueError):
    """A caller broke an operation precondition (dimension mismatch etc.)."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


def support(c: Coalition) -> frozenset[int]:
    """Agents contributing a positive amount to the coalition."""
    return frozenset(i for i, w in enumerate(c) if w > 0)


def vec_sub(a: Coalition, b: Coalition) -> Coalition:
    return tuple(map(sub, a, b))


def vec_leq(a: Coalition, b: Coalition) -> bool:
    return all(map(le, a, b))


def zero_coalition(n: int) -> Coalition:
    return (0,) * n


def reach(
    adj: Mapping[int, Iterable[int]], start: int, within: Container[int] | None = None
) -> dict[int, int | None]:
    """Breadth-first search from ``start``: the parent of every vertex
    reached (``start``'s is None), keyed in visit order.  Each vertex's
    neighbours are visited in ``adj``'s order; with ``within`` given, only
    vertices in it are entered."""
    parent: dict[int, int | None] = {start: None}
    queue = [start]
    for v in queue:
        for u in adj[v]:
            if u not in parent and (within is None or u in within):
                parent[u] = v
                queue.append(u)
    return parent


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

    @cached_property
    def _adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for a, b in self.simple_edges():
            adj[a].append(b)
            adj[b].append(a)
        return {i: sorted(nbrs) for i, nbrs in adj.items()}

    def neighbors(self, i: int) -> list[int]:
        return list(self._adjacency.get(i, ()))

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges

    def is_connected_subset(self, agents: frozenset[int]) -> bool:
        """True iff ``agents`` induces a connected subgraph (singletons count)."""
        if len(agents) <= 1:
            return True
        return len(reach(self._adjacency, next(iter(agents)), agents)) == len(agents)

    def components(self) -> list[list[int]]:
        """Connected components over all n vertices, each sorted ascending."""
        seen: set[int] = set()
        comps = []
        for start in range(self.n):
            if start not in seen:
                comp = reach(self._adjacency, start)
                seen.update(comp)
                comps.append(sorted(comp))
        return comps

    @cached_property
    def _is_forest(self) -> bool:
        degrees = sum(map(len, self._adjacency.values()))
        return degrees == 2 * (self.n - len(self.components()))

    def is_forest(self) -> bool:
        """True iff the simple-edge graph is acyclic (self-loops ignored): a
        forest has one edge fewer per component than it has vertices.  The
        graph is immutable, so the answer is computed once."""
        return self._is_forest


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
        key = self._entry_of.get(c)
        if key is None:
            if len(c) != self.n:
                raise ContractViolation(f"coalition has length {len(c)}, expected {self.n}")
            return ZERO
        sup, contrib = key
        return self.entries[sup][contrib]

    def atoms(self) -> list[tuple[Coalition, Fraction]]:
        """All positive-valued stored coalitions as full-length vectors."""
        return [a for row in self._support_atoms.values() for a in row]

    def atoms_within(self, agents: frozenset[int]) -> list[tuple[Coalition, Fraction]]:
        """Positive-valued stored coalitions whose support is inside ``agents``."""
        return [a for sup, row in self._support_atoms.items() if agents.issuperset(sup) for a in row]

    @cached_property
    def _support_atoms(self) -> dict[tuple[int, ...], list[tuple[Coalition, Fraction]]]:
        """Each support's positive-valued stored coalitions as (vector,
        value) pairs in contribution order, supports in sorted order."""
        vectors = self.vectors
        return {
            sup: [
                (vectors[(sup, contrib)], value)
                for contrib, value in sorted(self.entries[sup].items())
                if value > 0
            ]
            for sup in sorted(self.entries)
        }

    @cached_property
    def scale(self) -> int:
        """The lcm of the denominators of the atom values: the scale of the
        game's ``int`` tables (``_pair_frontiers``, ``GameDef._solo_covers``)."""
        return _denominator(v for row in self._support_atoms.values() for _, v in row)

    @cached_property
    def _pair_frontiers(self) -> dict[tuple[int, int], list[tuple[Coalition, int]]]:
        """Each two-agent support's atoms that no atom at fewer or equal
        units of both agents matches in value (``covers._frontier``), as
        (vector, value times ``scale``) pairs.  The bag engine merges only
        these; dominance survives its positive scaling, so they are found
        once per game."""
        out = {}
        d = self.scale
        for sup, row in self._support_atoms.items():
            if len(sup) == 2:
                a, b = sup
                # an atom is keyed by its two ends' units, which fix it
                atom = {(c[a], c[b]): (c, _scaled(v, d)) for c, v in row}
                front = _frontier({z: v for z, (_, v) in atom.items()})
                out[sup] = [atom[z] for z in front]
        return out

    @cached_property
    def vectors(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Coalition]:
        """Full-length vector of every stored entry, keyed (support,
        contribution).  Built once, so the atoms, tables and witness
        structures of every call on this game share one tuple per entry."""
        out = {}
        for sup, table in self.entries.items():
            for contrib in table:
                c = [0] * self.n
                for i, w in zip(sup, contrib):
                    c[i] = w
                out[(sup, contrib)] = tuple(c)
        return out

    @cached_property
    def _entry_of(self) -> dict[Coalition, tuple[tuple[int, ...], tuple[int, ...]]]:
        """The (support, contribution) key of every stored vector.  ``value``
        and ``core.structure_value`` read the value itself from ``entries``,
        so they see later edits of a stored value."""
        return {c: key for key, c in self.vectors.items()}


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

    def _shared(self, part):
        """``part``, or the equal part of an earlier answer on this game: a
        caller that keeps many answers holds one object per distinct agent
        set or witness structure, as coalitions share the game's vectors.
        At most 4096 parts are held; the memo starts afresh when it is full."""
        memo = self.__dict__.setdefault("_parts", {})
        if len(memo) >= 4096:
            memo.clear()
        return memo.setdefault(part, part)

    @cached_property
    def _solo_vectors(self) -> dict[tuple[int, int], Coalition]:
        """The vector of ``w`` units of agent ``i`` alone, keyed ``(i, w)``,
        for every ``w`` up to the agent's weight; a stored entry's vector is
        reused.  The fillers that pad witnesses share these tuples."""
        stored = self.charfun.vectors
        out = {}
        for i, weight in enumerate(self.weights):
            for w in range(1, weight + 1):
                vec = stored.get(((i,), (w,)))
                if vec is None:
                    vec = tuple(w if j == i else 0 for j in range(self.n))
                out[(i, w)] = vec
        return out

    @cached_property
    def _solo_covers(self) -> list[tuple[list, list[int], dict]]:
        """Each agent's ``single_cover`` over its whole weight, on values
        times ``charfun.scale``: (atoms, v*_i(w) for w = 0..w_i, picks).
        Every solver reads a prefix of it; ``solo_value`` divides back."""
        d = self.charfun.scale
        out = []
        for i, weight in enumerate(self.weights):
            atoms = [((c[i],), _scaled(v, d)) for c, v in self.charfun._support_atoms.get((i,), ())]
            out.append((atoms, *single_cover(atoms, weight)))
        return out

    @cached_property
    def _agent_sets(self) -> list[frozenset[int]]:
        """Every set of agents, at the index of its bitmask.  The oracle's
        max-excess scan reads its deviating sets here, so the set its
        answer names is the game's own, as its witness's vectors are."""
        sets = [frozenset()]
        for i in range(self.n):
            sets += [s | {i} for s in sets]
        return sets

    def solo_value(self, i: int, w: int) -> Fraction:
        """v*_i(w): the best agent ``i`` makes alone with ``w`` units."""
        return Fraction(self._solo_covers[i][1][w], self.charfun.scale)

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
    """Componentwise sum of the structure's coalitions, each of length n."""
    return tuple(map(sum, zip(*cs))) if cs else (0,) * n


def _pad_fillers(g: GameDef, atoms: list[Coalition], target: Coalition) -> CoalitionStructure:
    """Append one singleton filler per agent so the weight is exactly target.

    Witness atoms are the game's own vectors and the fillers come from
    ``GameDef._solo_vectors``, so every structure shares its tuples with the
    game, and an equal structure returned before is returned again
    (``GameDef._shared``)."""
    used = structure_weight(tuple(atoms), g.n)
    out = list(atoms)
    for i in range(g.n):
        gap = target[i] - used[i]
        if gap > 0:
            out.append(g._solo_vectors[(i, gap)])
    return g._shared(tuple(out))


def structure_value(g: GameDef, cs: CoalitionStructure) -> Fraction:
    """Sum of ``charfun.value`` over the structure's coalitions, repeats
    counted.  Unlisted coalitions are worth 0 and add nothing, nor is the
    first nonzero value added to 0; a coalition of the wrong length raises
    ``ContractViolation``, as in ``value``."""
    cf = g.charfun
    entry_of, entries = cf._entry_of, cf.entries
    total = ZERO
    for c in cs:
        key = entry_of.get(c)
        if key is not None:
            v = entries[key[0]][key[1]]
            total = total + v if total else v
        elif len(c) != g.n:
            raise ContractViolation(f"coalition has length {len(c)}, expected {g.n}")
    return total


def _subset_sums(values: Sequence[Fraction]) -> list[Fraction]:
    """Entry ``mask`` is the sum of ``values[i]`` over the bits i of mask.
    Each entry is the one without its highest bit plus that bit's value, so
    one add per set, and none for a zero value."""
    sums = [ZERO]
    for v in values:
        sums += [s + v for s in sums] if v else list(sums)
    return sums


def reduce_structure(cs: CoalitionStructure, agents: Iterable[int]) -> CoalitionStructure:
    """Sublist of coalitions fully supported inside ``agents`` (order kept)."""
    s = frozenset(agents)
    return tuple(c for c in cs if support(c) <= s)


def mixed_indices(cs: CoalitionStructure, agents: frozenset[int]) -> list[int]:
    """Indices into ``cs`` of the coalitions ``agents`` share with outsiders:
    those of which the agents contribute neither nothing nor everything."""
    return [j for j, c in enumerate(cs) if 0 < sum(c[i] for i in agents) < sum(c)]


@dataclass(frozen=True)
class Outcome:
    """A coalition structure together with per-coalition payoff vectors."""

    structure: CoalitionStructure
    imputation: Imputation

    def __post_init__(self) -> None:
        if len(self.structure) != len(self.imputation):
            raise ContractViolation("imputation length must match structure length")

    @cached_property
    def supports(self) -> tuple[frozenset[int], ...]:
        """``support`` of each coalition in the structure, computed once."""
        return tuple(support(c) for c in self.structure)

    def payoff_to_agent(self, i: int) -> Fraction:
        return sum((x[i] for x in self.imputation), start=ZERO)

    def payoff_to_set(self, agents: Iterable[int]) -> Fraction:
        s = set(agents)
        return sum((self.payoff_to_agent(i) for i in s), start=ZERO)


def payoff_to_set(o: Outcome, agents: Iterable[int]) -> Fraction:
    """Total payoff the agent set collects across all coalitions."""
    return o.payoff_to_set(agents)


def structure_violations(g: GameDef, cs: CoalitionStructure) -> list[str]:
    """The structure half of the outcome rules, in integers only: every
    coalition has n non-negative contributions, and together they stay
    within the endowments.  One message per violation."""
    problems = [
        f"coalition {j}: length {len(c)} != n={g.n}" for j, c in enumerate(cs) if len(c) != g.n
    ]
    if problems:
        return problems
    if g.n and min(map(min, cs), default=0) < 0:
        problems = [f"coalition {j}: negative contribution" for j, c in enumerate(cs) if min(c) < 0]
    total = structure_weight(cs, g.n)
    if not vec_leq(total, g.weights):
        problems.extend(
            f"structure exceeds endowments: agent {i} contributes {used} > weight {w}"
            for i, (used, w) in enumerate(zip(total, g.weights))
            if used > w
        )
    return problems


def require_structure(g: GameDef, cs: CoalitionStructure) -> None:
    """Refuse a structure that breaks ``structure_violations``, naming the
    first violation."""
    problems = structure_violations(g, cs)
    if problems:
        raise ContractViolation(problems[0])


def _require_agents(n: int, agents: Iterable[int]) -> None:
    """Refuse a set of agents naming one outside ``range(n)``; a negative
    index would otherwise read another agent's entries."""
    for i in agents:
        if not 0 <= i < n:
            raise ContractViolation(f"agent {i} out of range for n={n}")


def outcome_violations(g: GameDef, o: Outcome) -> list[str]:
    """Every rule of a valid outcome but individual rationality, one message
    per violation: ``structure_violations``, then for each coalition a
    payoff vector of length n that pays out exactly the coalition's value
    (efficiency), to its contributors only and never below zero (no side
    payments)."""
    problems = structure_violations(g, o.structure)
    for j, (c, x, sup) in enumerate(zip(o.structure, o.imputation, o.supports)):
        if len(x) != g.n:
            problems.append(f"payoff vector {j}: length {len(x)} != n={g.n}")
            continue
        if len(c) != g.n:
            continue
        # with nothing paid outside the support, its entries are the whole sum
        outside = any(v for i, v in enumerate(x) if i not in sup)
        paid = sum(x if outside else (x[i] for i in sup), start=ZERO)
        want = g.charfun.value(c)
        if paid != want:
            problems.append(f"efficiency: coalition {j} pays {paid}, value is {want}")
        if outside or any(x[i] < 0 for i in sup):
            problems.extend(
                f"no-side-payments: coalition {j} pays outside its support or below zero:"
                f" agent {i} gets {v}"
                for i, v in enumerate(x)
                if v < 0 or (v and i not in sup)
            )
    return problems


def require_outcome(g: GameDef, o: Outcome) -> None:
    """Refuse an outcome that breaks ``outcome_violations``, naming the
    first violation.  A pass is recorded on the outcome, so asking again
    with the same game object costs one identity test."""
    if o.__dict__.get("_valid_for") is g:
        return
    problems = outcome_violations(g, o)
    if problems:
        raise ContractViolation(problems[0])
    o.__dict__["_valid_for"] = g


def validate_outcome(o: Outcome, g: GameDef, ir_mode: str = "full-endowment") -> list[str]:
    """Every violation of the outcome rules: ``outcome_violations`` plus
    individual rationality, one message per violation; an empty list means
    the outcome is valid.

    ``ir_mode`` picks the individual-rationality baseline: "full-endowment"
    compares against the best an agent can do with its whole weight,
    "unit" against a single unit of it.  Violations are data, not errors.
    """
    if ir_mode not in ("full-endowment", "unit"):
        raise ContractViolation(f"unknown ir_mode {ir_mode!r}")
    problems = outcome_violations(g, o)
    if any(len(x) != g.n for x in o.imputation):
        return problems  # an agent's total is undefined; the length is the violation
    for i, w in enumerate(g.weights):
        baseline = g.solo_value(i, w if ir_mode == "full-endowment" else 1)
        got = o.payoff_to_agent(i)
        if got < baseline:
            problems.append(
                f"individual rationality: agent {i} gets {got} < solo value {baseline}"
            )
    return problems
