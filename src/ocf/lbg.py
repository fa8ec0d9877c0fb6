"""Linear Bottleneck Games: LP-based optimal structures and optimistic core.

A linear bottleneck game assigns each task a fixed agent set and pays the task
price times the smallest contribution, so an optimal coalition structure is a
task-level vector found by one LP; the dual prices agents' bargaining power,
and paying each agent its dual price per unit contributed lands the outcome in
the optimistic core.  Contributions here are rational, not integer.

A deviation by S is an abandon list (tasks S walks away from, which must
include every executed task fully inside S) plus per-task uniform withdrawal
levels on the remaining tasks it touches.  Abandoned tasks only free
resources; partial withdrawals keep the coalition alive at a reduced level,
with S absorbing the marginal damage.  ``lbg_best_deviation`` reports both the
resource-reuse net (new-structure profit minus marginal loss) and the full
deviation payoff including retained shares; core verification compares the
full payoff against what S currently earns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterator

from .core import ZERO, BudgetExceededError, ContractViolation, _require_agents, _subset_sums
from .lp import LinearProgram, solve_lp

ONE = Fraction(1)


@dataclass(frozen=True)
class LbgTask:
    agents: frozenset[int]
    pi: Fraction


@dataclass(frozen=True)
class LbgInstance:
    n: int
    weights: tuple[Fraction, ...]
    tasks: tuple[LbgTask, ...]

    def singleton_index(self, i: int) -> int:
        for j, t in enumerate(self.tasks):
            if t.agents == frozenset((i,)):
                return j
        raise ContractViolation(f"no singleton task for agent {i}")

    def tasks_of(self, i: int) -> list[int]:
        return [j for j, t in enumerate(self.tasks) if i in t.agents]


def make_lbg_instance(
    n: int,
    weights: list[Fraction],
    tasks: list[tuple[set[int] | frozenset[int], Fraction]],
) -> LbgInstance:
    """Build an instance; missing singleton tasks are added with price 0."""
    if len(weights) != n or any(w <= 0 for w in weights):
        raise ContractViolation("weights must be n positive rationals")
    seen: set[frozenset[int]] = set()
    rows: list[LbgTask] = []
    for agents, pi in tasks:
        aset = frozenset(int(i) for i in agents)
        if not aset or any(i < 0 or i >= n for i in aset):
            raise ContractViolation(f"task agent set {sorted(aset)} out of range")
        if aset in seen:
            raise ContractViolation(f"duplicate task agent set {sorted(aset)}")
        if Fraction(pi) < 0:
            raise ContractViolation("task price must be non-negative")
        seen.add(aset)
        rows.append(LbgTask(agents=aset, pi=Fraction(pi)))
    for i in range(n):
        if frozenset((i,)) not in seen:
            rows.append(LbgTask(agents=frozenset((i,)), pi=ZERO))
    return LbgInstance(n=n, weights=tuple(Fraction(w) for w in weights), tasks=tuple(rows))


def lbg_coalition_value(inst: LbgInstance, contributions: dict[int, Fraction]) -> Fraction:
    """Characteristic value: task price times the bottleneck contribution."""
    sup = frozenset(i for i, v in contributions.items() if v > 0)
    if not sup:
        return ZERO
    for t in inst.tasks:
        if t.agents == sup:
            return t.pi * min(contributions[i] for i in sup)
    return ZERO


@dataclass(frozen=True)
class LbgSolution:
    allocation: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]
    value: Fraction


def _allocation_lp(inst: LbgInstance, rhs: list[Fraction], task_idx: list[int]) -> LinearProgram:
    lp = LinearProgram(
        n_vars=len(task_idx),
        objective=[inst.tasks[j].pi for j in task_idx],
    )
    for i in range(len(rhs)):
        coeffs = {
            k: ONE for k, j in enumerate(task_idx) if i in inst.tasks[j].agents
        }
        if coeffs or rhs[i] < 0:
            lp.add_row(coeffs, "<=", rhs[i])
    return lp


def lbg_optimal(inst: LbgInstance, cross_check: bool = False) -> LbgSolution:
    """Optimal task levels and basis duals, with all certificates verified.

    ``cross_check`` additionally solves the dual program on its own and
    asserts the objectives coincide.
    """
    task_idx = list(range(len(inst.tasks)))
    lp = _allocation_lp(inst, list(inst.weights), task_idx)
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.x is not None and sol.duals is not None
    alloc = sol.x
    duals = sol.duals
    value = sol.objective_value
    assert value is not None
    # certificates: feasibility both sides, strong duality, complementary slackness
    for i in range(inst.n):
        used = sum((alloc[j] for j in inst.tasks_of(i)), start=ZERO)
        if used > inst.weights[i]:
            raise AssertionError(f"primal infeasible at agent {i}")
    for j, t in enumerate(inst.tasks):
        covered = sum((duals[i] for i in t.agents), start=ZERO)
        if covered < t.pi:
            raise AssertionError(f"dual infeasible at task {j}")
        if alloc[j] > 0 and covered != t.pi:
            raise AssertionError(f"complementary slackness fails at task {j}")
    if any(d < 0 for d in duals):
        raise AssertionError("negative dual")
    dual_value = sum((w * d for w, d in zip(inst.weights, duals)), start=ZERO)
    if dual_value != value:
        raise AssertionError("strong duality fails")
    if cross_check:
        dual_lp = LinearProgram(n_vars=inst.n, objective=[-w for w in inst.weights])
        for t in inst.tasks:
            dual_lp.add_row({i: ONE for i in t.agents}, ">=", t.pi)
        ds = solve_lp(dual_lp)
        assert ds.status == "optimal" and ds.objective_value is not None
        if -ds.objective_value != value:
            raise AssertionError("independent dual solve disagrees")
    return LbgSolution(allocation=tuple(alloc), duals=tuple(duals), value=value)


@dataclass(frozen=True)
class LbgOutcome:
    """One coalition per task (uniform contribution = level) plus payoffs;
    ``prices``, when set, are dual prices of ``lbg_optimal`` that
    ``lbg_verify_core`` screens with instead of solving it again."""

    instance: LbgInstance
    levels: tuple[Fraction, ...]
    payoffs: tuple[dict[int, Fraction], ...]
    prices: tuple[Fraction, ...] | None = None

    def payoff_to_agent(self, i: int) -> Fraction:
        return sum((x.get(i, ZERO) for x in self.payoffs), start=ZERO)

    def payoff_to_set(self, agents) -> Fraction:
        return sum((self.payoff_to_agent(i) for i in set(agents)), start=ZERO)

    def unused(self, i: int) -> Fraction:
        used = sum(
            (self.levels[j] for j in self.instance.tasks_of(i)), start=ZERO
        )
        return self.instance.weights[i] - used


def validate_lbg_outcome(out: LbgOutcome) -> list[str]:
    inst = out.instance
    problems = []
    if len(out.levels) != len(inst.tasks) or len(out.payoffs) != len(inst.tasks):
        return ["levels/payoffs length mismatch"]
    for j, lvl in enumerate(out.levels):
        if lvl < 0:
            problems.append(f"task {j}: negative level")
    for i in range(inst.n):
        if out.unused(i) < 0:
            problems.append(f"agent {i}: contributions exceed weight")
    for j, (t, x) in enumerate(zip(inst.tasks, out.payoffs)):
        paid = sum(x.values(), start=ZERO)
        want = t.pi * out.levels[j]
        if paid != want:
            problems.append(f"task {j}: pays {paid}, value is {want}")
        for i, v in x.items():
            if v < 0:
                problems.append(f"task {j}: negative payoff to agent {i}")
            if v > 0 and i not in t.agents:
                problems.append(f"task {j}: pays non-member {i}")
    return problems


def _require_lbg_outcome(out: LbgOutcome) -> None:
    """Refuse an outcome that breaks ``validate_lbg_outcome``, naming every
    violation.  A pass is recorded on the outcome, as ``core.require_outcome``
    records one, so the per-profile calls of ``lbg_verify_core`` check it
    once; an outcome is not edited after construction."""
    if out.__dict__.get("_valid"):
        return
    problems = validate_lbg_outcome(out)
    if problems:
        raise ContractViolation("invalid outcome: " + "; ".join(problems))
    out.__dict__["_valid"] = True


def lbg_core_outcome(inst: LbgInstance, sol: LbgSolution | None = None) -> LbgOutcome:
    """Dual-priced outcome: agent i earns its dual price per unit contributed.

    Every executed task forms one uniform coalition; leftover weight tops up
    the agent's singleton task (worthless by complementary slackness, so
    efficiency is preserved).
    """
    if sol is None:
        sol = lbg_optimal(inst)
    levels = list(sol.allocation)
    payoffs: list[dict[int, Fraction]] = []
    for j, t in enumerate(inst.tasks):
        if sol.allocation[j] > 0:
            payoffs.append({i: sol.duals[i] * sol.allocation[j] for i in t.agents})
        else:
            payoffs.append({})
    for i in range(inst.n):
        used = sum((sol.allocation[j] for j in inst.tasks_of(i)), start=ZERO)
        slack = inst.weights[i] - used
        if slack > 0:
            levels[inst.singleton_index(i)] += slack
    out = LbgOutcome(instance=inst, levels=tuple(levels), payoffs=tuple(payoffs), prices=sol.duals)
    problems = validate_lbg_outcome(out)
    if problems:
        raise AssertionError(f"constructed outcome invalid: {problems}")
    return out


@dataclass(frozen=True)
class LbgDeviation:
    """One evaluated deviation of S: who abandons what, who withdraws how much."""

    agents: frozenset[int]
    abandoned: frozenset[int]
    partial: dict[int, Fraction] = field(default_factory=dict)
    nu: dict[int, Fraction] = field(default_factory=dict)
    withdrawn: dict[int, Fraction] = field(default_factory=dict)
    alpha: Fraction = ZERO
    net: Fraction = ZERO
    total: Fraction = ZERO


def _task_split(
    inst: LbgInstance, out: LbgOutcome, deviators: frozenset[int]
) -> tuple[list[int], list[int], list[int]]:
    """In task order: executed tasks inside S ("forced"), executed tasks S
    shares with outsiders ("mixed") and every task inside S ("inside")."""
    forced, mixed, inside = [], [], []
    for j, t in enumerate(inst.tasks):
        if t.agents <= deviators:
            inside.append(j)
            if out.levels[j] > 0:
                forced.append(j)
        elif out.levels[j] > 0 and t.agents & deviators:
            mixed.append(j)
    return forced, mixed, inside


def lbg_best_deviation(
    inst: LbgInstance,
    out: LbgOutcome,
    deviators: frozenset[int],
    abandon: frozenset[int],
    partial: dict[int, Fraction],
) -> LbgDeviation:
    """Evaluate one deviation exactly.

    ``abandon`` must list executed tasks touching S and include every executed
    task fully inside S; ``partial`` maps remaining touched tasks to uniform
    withdrawal levels within their current level.  The freed resources are
    reused optimally via one small LP.  The outcome must pass
    ``validate_lbg_outcome``.
    """
    _require_agents(inst.n, deviators)
    _require_lbg_outcome(out)
    forced, mixed, inside = _task_split(inst, out, deviators)
    if not abandon.issuperset(forced):
        raise ContractViolation("abandon list must include executed tasks inside S")
    for j in abandon:
        if not 0 <= j < len(inst.tasks):
            raise ContractViolation(f"task {j} out of range")
        t = inst.tasks[j]
        if out.levels[j] <= 0:
            raise ContractViolation(f"task {j} is not executed; nothing to abandon")
        if not t.agents & deviators:
            raise ContractViolation(f"task {j} does not involve the deviators")
    mixed = [j for j in mixed if j not in abandon]
    for j, z in partial.items():
        if j not in mixed:
            raise ContractViolation(f"task {j} is not a withdrawable kept task")
        if z < 0 or z > out.levels[j]:
            raise ContractViolation(f"withdrawal {z} out of range for task {j}")

    nu = {
        i: sum((out.levels[j] for j in abandon if i in inst.tasks[j].agents), start=ZERO)
        for i in deviators
    }
    withdrawn = {
        i: sum(
            (partial.get(j, ZERO) for j in mixed if i in inst.tasks[j].agents),
            start=ZERO,
        )
        for i in deviators
    }
    rhs = [nu[i] + withdrawn[i] + out.unused(i) if i in deviators else ZERO for i in range(inst.n)]
    sol = solve_lp(_allocation_lp(inst, rhs, inside))
    assert sol.status == "optimal" and sol.objective_value is not None
    alpha = sol.objective_value
    marginal = sum((partial.get(j, ZERO) * inst.tasks[j].pi for j in mixed), start=ZERO)
    retained = ZERO
    for j in mixed:
        t = inst.tasks[j]
        z = partial.get(j, ZERO)
        owed = sum(
            (out.payoffs[j].get(i, ZERO) for i in range(inst.n) if i not in deviators),
            start=ZERO,
        )
        retained += t.pi * (out.levels[j] - z) - owed
    return LbgDeviation(
        agents=deviators,
        abandoned=frozenset(abandon),
        partial=dict(partial),
        nu=nu,
        withdrawn=withdrawn,
        alpha=alpha,
        net=alpha - marginal,
        total=alpha + retained,
    )


def _require_grid(grid: Fraction) -> Fraction:
    """The withdrawal grid as a ``Fraction``, refused unless positive."""
    grid = Fraction(grid)
    if grid <= 0:
        raise ContractViolation("grid must be positive")
    return grid


def iter_lbg_deviations(
    inst: LbgInstance,
    out: LbgOutcome,
    deviators: frozenset[int],
    grid: Fraction,
    max_count: int | None = None,
) -> Iterator[tuple[frozenset[int], dict[int, Fraction]]]:
    """All (abandon set, grid withdrawal profile) pairs for one deviating
    set; the outcome must pass ``validate_lbg_outcome``."""
    _require_agents(inst.n, deviators)
    _require_lbg_outcome(out)
    grid = _require_grid(grid)
    forced, optional, _ = _task_split(inst, out, deviators)
    count = 0
    for bits in range(1 << len(optional)):
        extra = frozenset(optional[k] for k in range(len(optional)) if bits >> k & 1)
        abandon = extra.union(forced)
        kept = [j for j in optional if j not in extra]
        axes = []
        for j in kept:
            lvl = out.levels[j]
            steps = lvl / grid
            ticks = [grid * k for k in range(int(steps) + 1)]
            if ticks[-1] != lvl:
                ticks.append(lvl)  # all-or-nothing withdrawal is always on the grid
            axes.append(ticks)
        for combo in product(*axes):
            z = {j: v for j, v in zip(kept, combo) if v > 0}
            count += 1
            if max_count is not None and count > max_count:
                raise BudgetExceededError(
                    f"deviation enumeration exceeded {max_count} profiles"
                )
            yield abandon, z


def _unused_weights(out: LbgOutcome) -> list[Fraction]:
    """``out.unused(i)`` of every agent, in agent order."""
    return [out.unused(i) for i in range(out.instance.n)]


def _screen_terms(
    inst: LbgInstance,
    out: LbgOutcome,
    deviators: frozenset[int],
    unused: list[Fraction] | None = None,
) -> tuple[list[int], list[int], dict[int, Fraction], dict[int, Fraction]]:
    """What S's screen LP reads: the mixed and inside tasks of
    ``_task_split``, each deviator's base (its unused weight plus the levels
    of the executed tasks inside S it is in) and each mixed task's share of
    its payoffs paid to S.  ``unused`` is ``_unused_weights(out)``, read
    here when not given."""
    if unused is None:
        unused = _unused_weights(out)
    forced, mixed, inside = _task_split(inst, out, deviators)
    base = {
        i: sum((out.levels[j] for j in forced if i in inst.tasks[j].agents), start=unused[i])
        for i in deviators
    }
    share = {
        j: sum((out.payoffs[j].get(i, ZERO) for i in deviators), start=ZERO) for j in mixed
    }
    return mixed, inside, base, share


def _screen_value(
    inst: LbgInstance, out: LbgOutcome, deviators: frozenset[int]
) -> Fraction:
    """Exact upper bound on any deviation's total payoff (LP relaxation).

    Kept tasks are relaxed to the chord between "keep untouched" and
    "abandon"; the bound is tight enough that it never fires on dual-priced
    outcomes, which is exactly the theorem being verified.
    """
    mixed, inside, base, share = _screen_terms(inst, out, deviators)
    nv = len(inside) + 2 * len(mixed)  # c_j, then (f_j, gain_j) per mixed task
    obj = [inst.tasks[j].pi for j in inside] + [ZERO, ONE] * len(mixed)
    lp = LinearProgram(n_vars=nv, objective=obj)
    fpos = {j: len(inside) + 2 * k for k, j in enumerate(mixed)}
    for i in sorted(deviators):
        coeffs: dict[int, Fraction] = {
            m: ONE for m, j in enumerate(inside) if i in inst.tasks[j].agents
        }
        for j in mixed:
            if i in inst.tasks[j].agents:
                coeffs[fpos[j]] = coeffs.get(fpos[j], ZERO) - ONE
        lp.add_row(coeffs, "<=", base[i])
    for j in mixed:
        lvl = out.levels[j]
        lp.add_row({fpos[j]: ONE}, "<=", lvl)
        # gain_j <= share * (1 - f_j / lvl)
        lp.add_row({fpos[j] + 1: ONE, fpos[j]: share[j] / lvl}, "<=", share[j])
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.objective_value is not None
    return sol.objective_value


def _dual_bound(
    inst: LbgInstance,
    out: LbgOutcome,
    deviators: frozenset[int],
    prices: tuple[Fraction, ...],
    unused: list[Fraction] | None = None,
) -> Fraction:
    """Objective of one dual-feasible point of ``_screen_value``'s LP for S,
    so an upper bound on its value (weak duality).

    ``prices`` are dual prices of ``lbg_optimal``: non-negative, and every
    task's agents' prices add up to at least its price, so they cover the
    columns of the tasks inside S.  Each mixed task t's gain row takes
    multiplier 1, which covers its gain column, and its level row takes
    max(0, prices(S ∩ t) - share/level), which covers its f column.
    ``unused`` is passed on to ``_screen_terms``.
    """
    mixed, _, base, share = _screen_terms(inst, out, deviators, unused)
    bound = sum((prices[i] * base[i] for i in deviators), start=ZERO)
    for j in mixed:
        lvl = out.levels[j]
        inside = sum((prices[i] for i in inst.tasks[j].agents & deviators), start=ZERO)
        bound += share[j] + max(ZERO, inside - share[j] / lvl) * lvl
    return bound


def lbg_verify_core(
    inst: LbgInstance,
    out: LbgOutcome,
    grid: Fraction = ONE,
    max_profiles_per_set: int = 200_000,
) -> LbgDeviation | None:
    """Search for a deviation whose total payoff beats what S earns now.

    Every nonempty S is first screened by weak duality: dual prices of
    ``lbg_optimal`` give a dual-feasible point of S's screen LP
    (``_dual_bound``), and only when its objective exceeds what S earns is
    the exact screen LP solved.  The prices are the outcome's own when it
    carries them, else those of one ``lbg_optimal`` solve; either way they
    must be dual feasible (weak duality holds at any such point), and prices
    that are not are refused with ``ContractViolation`` naming the task.
    Only sets the LP bound cannot clear either are grid-enumerated.
    Returns the first strictly profitable deviation found, or None.  For
    dual-priced outcomes the dual point always clears (that is the
    §-theorem this function tests), so no screen LP is solved, and with
    the outcome's own prices no LP at all.  Each agent's payoff and unused weight are read once per call: what
    every S earns comes from one table of subset sums.
    """
    _require_lbg_outcome(out)
    grid = _require_grid(grid)
    prices = out.prices
    if prices is None:
        prices = lbg_optimal(inst).duals
    elif len(prices) != inst.n or any(p < 0 for p in prices):
        raise ContractViolation("outcome prices must be n non-negative rationals")
    for j, t in enumerate(inst.tasks):
        if sum((prices[i] for i in t.agents), start=ZERO) < t.pi:
            raise ContractViolation(f"outcome prices do not cover task {j}'s price {t.pi}")
    unused = _unused_weights(out)
    earned = _subset_sums([out.payoff_to_agent(i) for i in range(inst.n)])
    for mask in range(1, 1 << inst.n):
        S = frozenset(i for i in range(inst.n) if mask >> i & 1)
        p_s = earned[mask]
        if _dual_bound(inst, out, S, prices, unused) <= p_s or _screen_value(inst, out, S) <= p_s:
            continue
        for abandon, z in iter_lbg_deviations(inst, out, S, grid, max_profiles_per_set):
            record = lbg_best_deviation(inst, out, S, abandon, z)
            if record.total > p_s:
                return record
    return None


# ---------------------------------------------------------------------------
# instance generators


def _simple_paths(
    edges: list[tuple[int, int]],
    start: int,
    goal: int,
    max_len: int,
    max_paths: int,
) -> list[tuple[tuple[int, int], ...]]:
    """Simple directed paths as edge sequences, DFS order, count-guarded."""
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for e in edges:
        adj.setdefault(e[0], []).append((e[1], e))
    paths: list[tuple[tuple[int, int], ...]] = []

    def dfs(node: int, visited: set[int], acc: list[tuple[int, int]]) -> None:
        if node == goal:
            paths.append(tuple(acc))
            if len(paths) > max_paths:
                raise BudgetExceededError(
                    f"more than {max_paths} paths from {start} to {goal}"
                )
            return
        if len(acc) >= max_len:
            return
        for nxt, e in sorted(adj.get(node, [])):
            if nxt not in visited:
                visited.add(nxt)
                acc.append(e)
                dfs(nxt, visited, acc)
                acc.pop()
                visited.discard(nxt)

    if start == goal:
        return []
    dfs(start, {start}, [])
    return paths


def gen_multicommodity_flow(
    edges: list[tuple[int, int]],
    suppliers: list[tuple[int, int, Fraction, Fraction]],
    capacities: dict[tuple[int, int], Fraction],
    max_path_len: int = 8,
    max_paths: int = 10_000,
) -> LbgInstance:
    """Suppliers and edges are agents; each source-sink simple path is a task.

    ``suppliers`` rows are (source, sink, commodity amount, per-unit price);
    a task joins the supplier with the edge-agents along one of its paths and
    pays the supplier's price per unit pushed.
    """
    edges = sorted(set(edges))
    if any(e not in capacities for e in edges):
        raise ContractViolation("every edge needs a capacity")
    n = len(suppliers) + len(edges)
    edge_agent = {e: len(suppliers) + k for k, e in enumerate(edges)}
    weights = [Fraction(w) for _, _, w, _ in suppliers]
    weights += [Fraction(capacities[e]) for e in edges]
    tasks: dict[frozenset[int], Fraction] = {}
    for idx, (s, t, _, price) in enumerate(suppliers):
        for path in _simple_paths(edges, s, t, max_path_len, max_paths):
            agents = frozenset({idx} | {edge_agent[e] for e in path})
            price = Fraction(price)
            if agents not in tasks or tasks[agents] < price:
                tasks[agents] = price
    return make_lbg_instance(n, weights, [(a, p) for a, p in sorted(tasks.items(), key=lambda kv: sorted(kv[0]))])


def gen_bipartite_market(
    a_weights: list[Fraction],
    b_weights: list[Fraction],
    prices: dict[tuple[int, int], Fraction],
) -> LbgInstance:
    """Sellers and buyers are agents; each priced edge is a two-agent task."""
    na, nb = len(a_weights), len(b_weights)
    tasks = []
    for (a, b), pi in sorted(prices.items()):
        if not (0 <= a < na and 0 <= b < nb):
            raise ContractViolation(f"edge ({a},{b}) out of range")
        tasks.append((frozenset((a, na + b)), Fraction(pi)))
    weights = [Fraction(w) for w in a_weights] + [Fraction(w) for w in b_weights]
    return make_lbg_instance(na + nb, weights, tasks)


def gen_routing(
    n_nodes: int,
    edges: list[tuple[int, int]],
    capacities: list[Fraction],
    demands: list[tuple[int, int, Fraction]],
    max_path_len: int = 8,
    max_paths: int = 10_000,
) -> LbgInstance:
    """Nodes are agents; every simple route of a demand pair is a task.

    Distinct routes visiting the same node set collapse to one task at the
    best price (task agent sets must be unique).
    """
    if len(capacities) != n_nodes:
        raise ContractViolation("one capacity per node required")
    tasks: dict[frozenset[int], Fraction] = {}
    for s, t, pi in demands:
        for path in _simple_paths(sorted(set(edges)), s, t, max_path_len, max_paths):
            nodes = frozenset({s} | {b for _, b in path})
            pi = Fraction(pi)
            if len(nodes) == 1:
                continue
            if nodes not in tasks or tasks[nodes] < pi:
                tasks[nodes] = pi
    return make_lbg_instance(
        n_nodes,
        [Fraction(w) for w in capacities],
        [(a, p) for a, p in sorted(tasks.items(), key=lambda kv: sorted(kv[0]))],
    )
