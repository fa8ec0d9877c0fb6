"""Command-line front end.

One binary, six subcommand families::

    ocf oracle  optval|arbval|checkcore|is-stable   brute-force reference
    ocf tree    optval|arbval|checkcore|is-stable   tree-interaction solvers
    ocf tw      optval|arbval|checkcore|is-stable   treewidth solvers
    ocf lbg     solve|core|verify|gen-flow|gen-market|gen-routing
    ocf gen     x3c|indep-set|set-cover             hardness-gadget fixtures
    ocf validate game|outcome|decomp

Exit codes: 0 yes/stable/in-core/feasible/valid, 1 no, 2 usage or data error,
3 enumeration budget exceeded.  ``--format machine`` emits one JSON document
on stdout; without ``--timing`` that document is byte-deterministic across
identical invocations.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .arbitration import LocalArbitrationRule, UnsupportedRuleError, require_local, rule_from_name
from .core import (
    BudgetExceededError,
    ContractViolation,
    GameDef,
    Outcome,
    validate_outcome,
)
from .gadgets import (
    X3cInstance,
    independent_set_gadget,
    set_cover_arbitration_gadget,
    x3c_gadget,
)
from .io import (
    DataError,
    dump_game,
    dump_lbg,
    dump_outcome,
    load_decomposition,
    load_game,
    load_lbg,
    load_outcome,
    outcome_to_dict,
    structure_from_dict,
    _load_json,
)
from .lbg import (
    gen_bipartite_market,
    gen_multicommodity_flow,
    gen_routing,
    lbg_core_outcome,
    lbg_optimal,
    lbg_verify_core,
)
from .oracle import (
    EnumerationBudget,
    brute_arbval,
    brute_checkcore,
    brute_is_stable,
    superadditive_cover,
)
from .rationals import RationalFormatError, format_rational, parse_rational
from .tree import (
    arbval_local,
    arbval_tree,
    checkcore_tree,
    is_stable_tree,
    optval_tree,
)
from .treewidth import (
    UnsupportedGameError,
    UnsupportedOutcomeError,
    arbval_tw,
    checkcore_tw,
    heuristic_decomposition,
    is_stable_tw,
    optval_tw,
    validate_decomposition,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


class _Report:
    def __init__(self, args: argparse.Namespace, command: str):
        self.machine = args.format == "machine"
        self.timing = getattr(args, "timing", False)
        self.doc: dict = {"command": command, "version": __version__}
        self.lines: list[str] = []
        self.started = time.perf_counter()

    def put(self, key: str, value) -> None:
        self.doc[key] = value

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self) -> None:
        if self.machine:
            if self.timing:
                self.doc["timing_ms"] = round(
                    (time.perf_counter() - self.started) * 1000, 3
                )
            print(json.dumps(self.doc, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
            if self.timing:
                ms = (time.perf_counter() - self.started) * 1000
                print(f"time: {ms:.1f} ms")


def _parse_agent_set(text: str, n: int) -> frozenset[int]:
    try:
        agents = frozenset(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise DataError(f"bad agent set {text!r}; expected e.g. 0,2") from None
    if any(i < 0 or i >= n for i in agents):
        raise DataError(f"agent set {text!r} out of range for n={n}")
    return agents


def _parse_coalition(args: argparse.Namespace, g: GameDef):
    if getattr(args, "all", False):
        return g.weights
    text = getattr(args, "coalition", None)
    if text is None:
        raise DataError("need --coalition i,j,... or --all")
    try:
        c = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DataError(f"bad coalition {text!r}") from None
    g.check_coalition(c)
    return c


def _budget(args: argparse.Namespace) -> EnumerationBudget:
    return EnumerationBudget(
        max_agents=args.budget_max_agents,
        max_weight=args.budget_max_weight,
        max_structures=args.budget_max_structures,
    )


def _rule(args: argparse.Namespace):
    return rule_from_name(args.arb)


def _local_rule(args: argparse.Namespace) -> LocalArbitrationRule:
    rule = rule_from_name(args.arb)
    require_local(rule)
    return rule


def _decomposition(args: argparse.Namespace, g: GameDef):
    if getattr(args, "auto", False):
        if g.interaction is None:
            raise DataError("game has no interaction graph to decompose")
        return heuristic_decomposition(g.interaction)
    path = getattr(args, "decomp", None)
    if path is None:
        raise DataError("need --decomp file.json or --auto")
    return load_decomposition(path)


def _threshold_verdict(report: _Report, value: Fraction, args) -> int:
    report.put("value", format_rational(value))
    report.say(f"value: {format_rational(value)}")
    if args.threshold is not None:
        bar = parse_rational(args.threshold)
        report.put("threshold", format_rational(bar))
        report.put("decision", "yes" if value >= bar else "no")
        report.say(f"threshold {format_rational(bar)}: {'yes' if value >= bar else 'no'}")
        return EXIT_YES if value >= bar else EXIT_NO
    return EXIT_YES


def _structure_doc(cs) -> list:
    return [list(c) for c in cs]


def _deviation_doc(dev) -> dict:
    return {str(j): list(d) for j, d in dev.withdrawals.items()}


def _load_structure(args, g: GameDef):
    doc = _load_json(args.outcome)
    return structure_from_dict(doc, g.n)


# ---------------------------------------------------------------------------
# solver commands


def cmd_optval(args: argparse.Namespace) -> int:
    g = load_game(args.game)
    c = _parse_coalition(args, g)
    report = _Report(args, f"{args.lane} optval")
    if args.lane == "oracle":
        value, witness = superadditive_cover(g, c, _budget(args))
    elif args.lane == "tree":
        value, witness = optval_tree(g, c)
    else:
        t = _decomposition(args, g)
        value, witness = optval_tw(g, t, c)
    report.put("witness", _structure_doc(witness))
    report.say(f"witness: {_structure_doc(witness)}")
    code = _threshold_verdict(report, value, args)
    report.emit()
    return code


def cmd_arbval(args: argparse.Namespace) -> int:
    g = load_game(args.game)
    o = load_outcome(args.outcome, g.n)
    S = _parse_agent_set(args.set, g.n)
    report = _Report(args, f"{args.lane} arbval")
    if args.lane == "oracle":
        value, (dev, post) = brute_arbval(g, _rule(args), o, S, _budget(args))
    elif args.lane == "tree":
        solver = arbval_local if args.local else arbval_tree
        value, dev, post = solver(g, _local_rule(args), o, S, with_witness=True)
    else:
        t = _decomposition(args, g) if (args.decomp or args.auto) else None
        value, dev, post = arbval_tw(g, _local_rule(args), o, S, t=t, with_witness=True)
    report.put("deviation", _deviation_doc(dev))
    report.put("post_structure", _structure_doc(post))
    code = _threshold_verdict(report, value, args)
    report.emit()
    return code


def cmd_checkcore(args: argparse.Namespace) -> int:
    g = load_game(args.game)
    o = load_outcome(args.outcome, g.n)
    report = _Report(args, f"{args.lane} checkcore")
    if args.lane == "oracle":
        violation = brute_checkcore(g, _rule(args), o, _budget(args))
    elif args.lane == "tree":
        violation = checkcore_tree(g, _local_rule(args), o)
    else:
        violation = checkcore_tw(g, _local_rule(args), o, _decomposition(args, g))
    if violation is None:
        report.put("decision", "in-core")
        report.say("in core: no subset has a profitable deviation")
        report.emit()
        return EXIT_YES
    report.put("decision", "not-in-core")
    report.put("violating_set", sorted(violation.agents))
    report.put("excess", format_rational(violation.excess))
    deviation = _deviation_doc(violation.deviation)
    post = _structure_doc(violation.post)
    report.put("deviation", deviation)
    report.put("post_structure", post)
    report.say(
        f"not in core: set {sorted(violation.agents)} gains "
        f"{format_rational(violation.excess)} by deviating"
    )
    report.say(
        f"witness: withdraw {json.dumps(deviation, sort_keys=True)}, then form {json.dumps(post)}"
    )
    report.emit()
    return EXIT_NO


def cmd_is_stable(args: argparse.Namespace) -> int:
    g = load_game(args.game)
    cs = _load_structure(args, g)
    report = _Report(args, f"{args.lane} is-stable")
    rule = _local_rule(args)
    if args.lane == "oracle":
        imputation = brute_is_stable(g, rule, cs, _budget(args))
    elif args.lane == "tree":
        imputation = is_stable_tree(g, rule, cs)
    else:
        if not args.experimental:
            raise DataError("tw is-stable is experimental; pass --experimental")
        imputation = is_stable_tw(g, rule, cs, _decomposition(args, g))
    if imputation is None:
        report.put("decision", "no")
        report.say("no stabilizing imputation exists for this structure")
        report.emit()
        return EXIT_NO
    report.put("decision", "yes")
    doc = outcome_to_dict(Outcome(structure=cs, imputation=imputation))
    report.put("outcome", doc)
    report.say("stable imputation found:")
    report.say(json.dumps(doc))
    if args.out:
        dump_outcome(Outcome(structure=cs, imputation=imputation), args.out)
        report.say(f"written to {args.out}")
    report.emit()
    return EXIT_YES


# ---------------------------------------------------------------------------
# lbg commands


def cmd_lbg(args: argparse.Namespace) -> int:
    report = _Report(args, f"lbg {args.lbg_cmd}")
    if args.lbg_cmd == "solve":
        inst = load_lbg(args.instance)
        sol = lbg_optimal(inst, cross_check=args.cross_check)
        report.put("value", format_rational(sol.value))
        report.put("allocation", [format_rational(v) for v in sol.allocation])
        report.put("duals", [format_rational(v) for v in sol.duals])
        report.say(f"optimal value: {format_rational(sol.value)}")
        report.say(f"allocation: {[format_rational(v) for v in sol.allocation]}")
        report.say(f"duals: {[format_rational(v) for v in sol.duals]}")
        report.emit()
        return EXIT_YES
    if args.lbg_cmd == "core":
        inst = load_lbg(args.instance)
        out = lbg_core_outcome(inst)
        doc = {
            "levels": [format_rational(v) for v in out.levels],
            "payoffs": [
                {str(i): format_rational(v) for i, v in sorted(x.items())}
                for x in out.payoffs
            ],
            "agent_totals": [
                format_rational(out.payoff_to_agent(i)) for i in range(inst.n)
            ],
        }
        report.put("outcome", doc)
        report.say(json.dumps(doc))
        report.emit()
        return EXIT_YES
    if args.lbg_cmd == "verify":
        inst = load_lbg(args.instance)
        out = lbg_core_outcome(inst)
        violation = lbg_verify_core(inst, out, parse_rational(args.grid))
        if violation is None:
            report.put("decision", "in-core")
            report.say("in optimistic core (verified on the grid)")
            report.emit()
            return EXIT_YES
        report.put("decision", "not-in-core")
        report.put("violating_set", sorted(violation.agents))
        report.put("total", format_rational(violation.total))
        report.say(f"violation by {sorted(violation.agents)}")
        report.emit()
        return EXIT_NO
    # generators
    if args.lbg_cmd == "gen-flow":
        edges = [tuple(int(x) for x in e.split("-")) for e in args.edge]
        caps = {}
        for spec in args.capacity:
            e, cap = spec.split("=")
            a, b = e.split("-")
            caps[(int(a), int(b))] = parse_rational(cap)
        suppliers = []
        for spec in args.supplier:
            s, t, w, pi = spec.split(",")
            suppliers.append((int(s), int(t), parse_rational(w), parse_rational(pi)))
        inst = gen_multicommodity_flow(edges, suppliers, caps, args.max_path_len)
    elif args.lbg_cmd == "gen-market":
        aw = [parse_rational(w) for w in args.sellers.split(",")]
        bw = [parse_rational(w) for w in args.buyers.split(",")]
        prices = {}
        for spec in args.price:
            e, p = spec.split("=")
            a, b = e.split("-")
            prices[(int(a), int(b))] = parse_rational(p)
        inst = gen_bipartite_market(aw, bw, prices)
    else:
        caps = [parse_rational(w) for w in args.capacities.split(",")]
        edges = [tuple(int(x) for x in e.split("-")) for e in args.edge]
        demands = []
        for spec in args.demand:
            s, t, pi = spec.split(",")
            demands.append((int(s), int(t), parse_rational(pi)))
        inst = gen_routing(len(caps), edges, caps, demands, args.max_path_len)
    dump_lbg(inst, args.out)
    report.put("instance", args.out)
    report.put("tasks", len(inst.tasks))
    report.say(f"wrote {args.out} ({len(inst.tasks)} tasks)")
    report.emit()
    return EXIT_YES


# ---------------------------------------------------------------------------
# gadget generators


def cmd_gen(args: argparse.Namespace) -> int:
    report = _Report(args, f"gen {args.gadget}")
    if args.gadget == "x3c":
        subsets = tuple(
            frozenset(int(x) for x in s.split(",")) for s in args.subset
        )
        inst = X3cInstance(args.elements, subsets)
        g, threshold = x3c_gadget(inst)
        dump_game(g, args.out)
        report.put("game", args.out)
        report.put("threshold", format_rational(threshold))
        report.say(f"wrote {args.out}; yes iff optimal value >= {format_rational(threshold)}")
    elif args.gadget == "indep-set":
        from .core import InteractionGraph

        edges = [tuple(int(x) for x in e.split("-")) for e in args.edge]
        graph = InteractionGraph.from_pairs(args.vertices, edges)
        g, threshold = independent_set_gadget(graph, args.size, parse_rational(args.eps))
        dump_game(g, args.out)
        report.put("game", args.out)
        report.put("threshold", format_rational(threshold))
        report.say(f"wrote {args.out}; yes iff optimal value >= {format_rational(threshold)}")
    else:
        elements = frozenset(int(x) for x in args.elements_list.split(","))
        subsets = tuple(frozenset(int(x) for x in s.split(",")) for s in args.subset)
        g, o, arb, threshold = set_cover_arbitration_gadget(elements, subsets, args.cover_size)
        dump_game(g, args.game_out)
        dump_outcome(o, args.outcome_out)
        report.put("game", args.game_out)
        report.put("outcome", args.outcome_out)
        report.put("threshold", format_rational(threshold))
        report.say(f"wrote {args.game_out} and {args.outcome_out}")
        report.say(f"yes iff agent 0's best deviation value >= {format_rational(threshold)}")
        if args.decide:
            value, _ = brute_arbval(g, arb, o, frozenset({0}), _budget(args))
            report.put("value", format_rational(value))
            report.put("decision", "yes" if value >= threshold else "no")
            report.say(f"deviation value {format_rational(value)}: "
                       f"{'yes' if value >= threshold else 'no'}")
            report.emit()
            return EXIT_YES if value >= threshold else EXIT_NO
    report.emit()
    return EXIT_YES


# ---------------------------------------------------------------------------
# validation


def cmd_validate(args: argparse.Namespace) -> int:
    report = _Report(args, f"validate {args.kind}")
    problems: list[str]
    if args.kind == "game":
        load_game(args.path)
        problems = []
    elif args.kind == "outcome":
        g = load_game(args.game)
        o = load_outcome(args.path, g.n)
        problems = validate_outcome(o, g, ir_mode=args.ir_mode)
    else:
        g = load_game(args.game)
        if g.interaction is None:
            raise DataError("game has no interaction graph")
        t = load_decomposition(args.path)
        problems = validate_decomposition(g.interaction, t)
        if not problems:
            report.put("width", t.width)
            report.say(f"width: {t.width}")
    report.put("problems", problems)
    report.put("decision", "valid" if not problems else "invalid")
    if problems:
        for p in problems:
            report.say(f"violation: {p}")
    else:
        report.say("valid")
    report.emit()
    return EXIT_YES if not problems else EXIT_NO


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--timing", action="store_true", help="include wall time in output")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-max-agents", type=int, default=6)
    p.add_argument("--budget-max-weight", type=int, default=4)
    p.add_argument("--budget-max-structures", type=int, default=10_000_000)


def _solver_parsers(sub, lane: str) -> None:
    lane_p = sub.add_parser(lane, help=f"{lane} solvers")
    ssub = lane_p.add_subparsers(dest="solver_cmd", required=True)

    p = ssub.add_parser("optval", help="best coalition-structure value")
    p.add_argument("--game", required=True)
    p.add_argument("--coalition", help="resource vector i,j,k,...")
    p.add_argument("--all", action="store_true", help="use the full endowment")
    p.add_argument("--threshold", help="decision threshold p/q")
    _add_common(p)
    _add_budget(p)
    if lane == "tw":
        p.add_argument("--decomp")
        p.add_argument("--auto", action="store_true")
    p.set_defaults(func=cmd_optval, lane=lane)

    p = ssub.add_parser("arbval", help="best deviation value of a set")
    p.add_argument("--game", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--set", required=True, help="deviating agents, e.g. 0,2")
    p.add_argument(
        "--arb",
        default="conservative",
        choices=("conservative", "refined", "optimistic", "optimistic-clamped", "sensitive"),
    )
    p.add_argument("--threshold")
    _add_common(p)
    _add_budget(p)
    if lane == "tree":
        p.add_argument("--local", action="store_true", help="use the withdrawal-vector DP")
    if lane == "tw":
        p.add_argument("--decomp")
        p.add_argument("--auto", action="store_true")
    p.set_defaults(func=cmd_arbval, lane=lane)

    p = ssub.add_parser("checkcore", help="is the outcome in the core?")
    p.add_argument("--game", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument(
        "--arb",
        default="conservative",
        choices=("conservative", "refined", "optimistic", "optimistic-clamped", "sensitive"),
    )
    _add_common(p)
    _add_budget(p)
    if lane == "tw":
        p.add_argument("--decomp")
        p.add_argument("--auto", action="store_true")
    p.set_defaults(func=cmd_checkcore, lane=lane)

    p = ssub.add_parser("is-stable", help="find a stabilizing imputation")
    p.add_argument("--game", required=True)
    p.add_argument("--outcome", required=True, help="outcome file; only the structure is read")
    p.add_argument(
        "--arb",
        default="conservative",
        choices=("conservative", "refined", "optimistic", "optimistic-clamped"),
    )
    p.add_argument("--out", help="write the stable outcome here")
    _add_common(p)
    _add_budget(p)
    if lane == "tw":
        p.add_argument("--decomp")
        p.add_argument("--auto", action="store_true")
        p.add_argument("--experimental", action="store_true")
    p.set_defaults(func=cmd_is_stable, lane=lane)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ocf", description=__doc__)
    ap.add_argument("--version", action="version", version=f"ocf {__version__}")
    sub = ap.add_subparsers(dest="family", required=True)

    for lane in ("oracle", "tree", "tw"):
        _solver_parsers(sub, lane)

    lbg = sub.add_parser("lbg", help="linear bottleneck games")
    lsub = lbg.add_subparsers(dest="lbg_cmd", required=True)
    p = lsub.add_parser("solve")
    p.add_argument("--instance", required=True)
    p.add_argument("--cross-check", action="store_true", help="solve the dual separately too")
    _add_common(p)
    p.set_defaults(func=cmd_lbg)
    p = lsub.add_parser("core")
    p.add_argument("--instance", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lbg)
    p = lsub.add_parser("verify")
    p.add_argument("--instance", required=True)
    p.add_argument("--grid", default="1", help="withdrawal granularity p/q")
    _add_common(p)
    p.set_defaults(func=cmd_lbg)
    p = lsub.add_parser("gen-flow")
    p.add_argument("--edge", action="append", default=[], help="a-b (repeatable)")
    p.add_argument("--capacity", action="append", default=[], help="a-b=p/q")
    p.add_argument("--supplier", action="append", default=[], help="s,t,W,pi")
    p.add_argument("--max-path-len", type=int, default=8)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lbg)
    p = lsub.add_parser("gen-market")
    p.add_argument("--sellers", required=True, help="weights w,w,...")
    p.add_argument("--buyers", required=True, help="weights w,w,...")
    p.add_argument("--price", action="append", default=[], help="a-b=p/q")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lbg)
    p = lsub.add_parser("gen-routing")
    p.add_argument("--capacities", required=True, help="node weights w,w,...")
    p.add_argument("--edge", action="append", default=[], help="a-b (repeatable)")
    p.add_argument("--demand", action="append", default=[], help="s,t,pi")
    p.add_argument("--max-path-len", type=int, default=8)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_lbg)

    gen = sub.add_parser("gen", help="hardness-gadget fixtures")
    gsub = gen.add_subparsers(dest="gadget", required=True)
    p = gsub.add_parser("x3c")
    p.add_argument("--elements", type=int, required=True)
    p.add_argument("--subset", action="append", required=True, help="e,e,e (repeatable)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen)
    p = gsub.add_parser("indep-set")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edge", action="append", default=[], help="a-b (repeatable)")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--eps", default="1/10")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen)
    p = gsub.add_parser("set-cover")
    p.add_argument("--elements-list", required=True, help="e,e,...")
    p.add_argument("--subset", action="append", required=True, help="e,e,... (repeatable)")
    p.add_argument("--cover-size", type=int, required=True)
    p.add_argument("--game-out", required=True)
    p.add_argument("--outcome-out", required=True)
    p.add_argument("--decide", action="store_true", help="run the brute deviation search")
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=cmd_gen)

    val = sub.add_parser("validate", help="validate data files")
    vsub = val.add_subparsers(dest="kind", required=True)
    p = vsub.add_parser("game")
    p.add_argument("--path", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_validate)
    p = vsub.add_parser("outcome")
    p.add_argument("--path", required=True)
    p.add_argument("--game", required=True)
    p.add_argument("--ir-mode", choices=("full-endowment", "unit"), default="full-endowment")
    _add_common(p)
    p.set_defaults(func=cmd_validate)
    p = vsub.add_parser("decomp")
    p.add_argument("--path", required=True)
    p.add_argument("--game", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0) and EXIT_ERROR
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        DataError,
        ContractViolation,
        RationalFormatError,
        UnsupportedRuleError,
        UnsupportedGameError,
        UnsupportedOutcomeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
