"""Command-line front end.

One binary, six subcommand families::

    ocf oracle  optval|arbval|checkcore|is-stable   brute-force reference
    ocf tree    optval|arbval|checkcore|is-stable   tree-interaction solvers
    ocf tw      optval|arbval|checkcore|is-stable   treewidth solvers
    ocf lbg     solve|core|verify|gen-flow|gen-market|gen-routing
    ocf gen     x3c|indep-set|set-cover             hardness-gadget fixtures
    ocf validate game|outcome|decomp

The CLI is a thin shell over the library: a choice the library makes gets no
flag, and every lane answers all four of its problems as the library does,
with no switch to unlock one.  ``--decomp`` is optional on every ``tw``
command; without it the solver builds the decomposition itself (a forest
decomposition on a forest, min-fill otherwise).  Enumeration budget flags
exist only where a budget is read: the oracle lane and ``gen set-cover
--decide``.

Exit codes: 0 yes/stable/in-core/feasible/valid, 1 no, 2 usage or data error
(a malformed flag value included), 3 enumeration budget exceeded.
``--format machine`` emits one JSON document on stdout; without ``--timing``
that document is byte-deterministic across identical invocations.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .arbitration import UnsupportedRuleError, rule_from_name
from .core import (
    BudgetExceededError,
    ContractViolation,
    GameDef,
    InteractionGraph,
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
        self.timing = args.timing
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


_FIELD_TYPES = {"i": int, "q": parse_rational}


def _fields(flag: str, text: str, form: str) -> tuple:
    """The typed fields of one ``--flag`` value.

    ``form`` spells the value as field kinds (``i`` an integer, ``q`` a
    rational) between one-character separators: ``"i-i=q"`` reads ``0-1=3/2``
    as ``(0, 1, Fraction(3, 2))``.  A form that ends in its separator, such
    as ``"i,"``, reads a list of any length; the empty text is the empty
    list.  Text that does not fit raises ``DataError`` naming the flag."""
    kinds, seps = form[::2], form[1::2]
    if len(kinds) == len(seps):
        parts = text.split(seps) if text else []
        kinds *= len(parts)
    else:
        parts, rest = [], text
        for sep in seps:
            part, _, rest = rest.partition(sep)
            parts.append(part)
        parts.append(rest)
    try:
        return tuple(_FIELD_TYPES[k](p) for k, p in zip(kinds, parts))
    except ValueError:
        raise DataError(f"bad --{flag} {text!r}") from None


def _parse_agent_set(text: str, n: int) -> frozenset[int]:
    agents = frozenset(_fields("set", text, "i,"))
    if any(i < 0 or i >= n for i in agents):
        raise DataError(f"agent set {text!r} out of range for n={n}")
    return agents


def _parse_coalition(args: argparse.Namespace, g: GameDef):
    if args.all:
        return g.weights
    if args.coalition is None:
        raise DataError("need --coalition i,j,... or --all")
    c = _fields("coalition", args.coalition, "i,")
    g.check_coalition(c)
    return c


def _budget(args: argparse.Namespace) -> EnumerationBudget:
    return EnumerationBudget(
        max_agents=args.budget_max_agents,
        max_weight=args.budget_max_weight,
        max_structures=args.budget_max_structures,
    )


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
        t = load_decomposition(args.decomp) if args.decomp else None
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
    rule = rule_from_name(args.arb)
    if args.lane == "oracle":
        value, (dev, post) = brute_arbval(g, rule, o, S, _budget(args))
    elif args.lane == "tree":
        solver = arbval_local if args.local else arbval_tree
        value, dev, post = solver(g, rule, o, S, with_witness=True)
    else:
        t = load_decomposition(args.decomp) if args.decomp else None
        value, dev, post = arbval_tw(g, rule, o, S, t=t, with_witness=True)
    report.put("deviation", _deviation_doc(dev))
    report.put("post_structure", _structure_doc(post))
    code = _threshold_verdict(report, value, args)
    report.emit()
    return code


def cmd_checkcore(args: argparse.Namespace) -> int:
    g = load_game(args.game)
    o = load_outcome(args.outcome, g.n)
    report = _Report(args, f"{args.lane} checkcore")
    rule = rule_from_name(args.arb)
    if args.lane == "oracle":
        violation = brute_checkcore(g, rule, o, _budget(args))
    elif args.lane == "tree":
        violation = checkcore_tree(g, rule, o)
    else:
        t = load_decomposition(args.decomp) if args.decomp else None
        violation = checkcore_tw(g, rule, o, t)
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
    cs = structure_from_dict(_load_json(args.outcome), g.n)
    report = _Report(args, f"{args.lane} is-stable")
    rule = rule_from_name(args.arb)
    if args.lane == "oracle":
        imputation = brute_is_stable(g, rule, cs, _budget(args))
    elif args.lane == "tree":
        imputation = is_stable_tree(g, rule, cs)
    else:
        t = load_decomposition(args.decomp) if args.decomp else None
        imputation = is_stable_tw(g, rule, cs, t)
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
        edges = [_fields("edge", e, "i-i") for e in args.edge]
        caps = {}
        for spec in args.capacity:
            a, b, cap = _fields("capacity", spec, "i-i=q")
            caps[(a, b)] = cap
        suppliers = [_fields("supplier", spec, "i,i,q,q") for spec in args.supplier]
        inst = gen_multicommodity_flow(edges, suppliers, caps, args.max_path_len)
    elif args.lbg_cmd == "gen-market":
        aw = list(_fields("sellers", args.sellers, "q,"))
        bw = list(_fields("buyers", args.buyers, "q,"))
        prices = {}
        for spec in args.price:
            a, b, p = _fields("price", spec, "i-i=q")
            prices[(a, b)] = p
        inst = gen_bipartite_market(aw, bw, prices)
    else:
        caps = list(_fields("capacities", args.capacities, "q,"))
        edges = [_fields("edge", e, "i-i") for e in args.edge]
        demands = [_fields("demand", spec, "i,i,q") for spec in args.demand]
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
    if args.gadget != "set-cover":
        if args.gadget == "x3c":
            subsets = tuple(frozenset(_fields("subset", s, "i,")) for s in args.subset)
            g, threshold = x3c_gadget(X3cInstance(args.elements, subsets))
        else:
            edges = [_fields("edge", e, "i-i") for e in args.edge]
            graph = InteractionGraph.from_pairs(args.vertices, edges)
            g, threshold = independent_set_gadget(graph, args.size, parse_rational(args.eps))
        dump_game(g, args.out)
        report.put("game", args.out)
        report.put("threshold", format_rational(threshold))
        report.say(f"wrote {args.out}; yes iff optimal value >= {format_rational(threshold)}")
    else:
        elements = frozenset(_fields("elements-list", args.elements_list, "i,"))
        subsets = tuple(frozenset(_fields("subset", s, "i,")) for s in args.subset)
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
# parser: each leaf command is a list of (flag, argparse keywords) specs

_REQUIRED = {"required": True}
_SWITCH = {"action": "store_true"}
_COMMON = (
    ("--format", {"choices": ("human", "machine"), "default": "human"}),
    ("--timing", {**_SWITCH, "help": "include wall time in output"}),
)
_BUDGET = (
    ("--budget-max-agents", {"type": int, "default": 6}),
    ("--budget-max-weight", {"type": int, "default": 4}),
    ("--budget-max-structures", {"type": int, "default": 10_000_000}),
)
_GAME = ("--game", _REQUIRED)
_OUTCOME = ("--outcome", _REQUIRED)
_INSTANCE = ("--instance", _REQUIRED)
_PATH = ("--path", _REQUIRED)
_OUT = ("--out", _REQUIRED)
_THRESHOLD = ("--threshold", {"help": "decision threshold p/q"})
_EDGES = ("--edge", {"action": "append", "default": [], "help": "a-b (repeatable)"})
_MAX_PATH_LEN = ("--max-path-len", {"type": int, "default": 8})
_ARB = ("--arb", {"default": "conservative", "choices": (
    "conservative", "refined", "optimistic", "optimistic-clamped", "sensitive")})
_LOCAL = ("--local", {**_SWITCH, "help": "use the withdrawal-vector DP"})
_DECOMP = ("--decomp", {"help": "decomposition file (default: a forest decomposition on a "
                                "forest, min-fill otherwise)"})


def _family(sub, name: str, dest: str, help: str | None = None):
    return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)


def _leaf(sub, name: str, func, *flags, help: str | None = None, budget: bool = False,
          **defaults) -> None:
    """Add leaf command ``name`` with its flags, then ``--format`` and
    ``--timing``, then the enumeration budget flags when it reads a budget."""
    p = sub.add_parser(name, help=help)
    for flag, spec in flags + _COMMON + (_BUDGET if budget else ()):
        p.add_argument(flag, **spec)
    p.set_defaults(func=func, **defaults)


def _solver_parsers(sub, lane: str) -> None:
    ssub = _family(sub, lane, "solver_cmd", f"{lane} solvers")
    oracle = lane == "oracle"
    decomp = (_DECOMP,) if lane == "tw" else ()
    local = (_LOCAL,) if lane == "tree" else ()
    _leaf(ssub, "optval", cmd_optval, _GAME,
          ("--coalition", {"help": "resource vector i,j,k,..."}),
          ("--all", {**_SWITCH, "help": "use the full endowment"}),
          _THRESHOLD, *decomp,
          help="best coalition-structure value", budget=oracle, lane=lane)
    _leaf(ssub, "arbval", cmd_arbval, _GAME, _OUTCOME,
          ("--set", {**_REQUIRED, "help": "deviating agents, e.g. 0,2"}),
          _ARB, _THRESHOLD, *local, *decomp,
          help="best deviation value of a set", budget=oracle, lane=lane)
    _leaf(ssub, "checkcore", cmd_checkcore, _GAME, _OUTCOME, _ARB, *decomp,
          help="is the outcome in the core?", budget=oracle, lane=lane)
    _leaf(ssub, "is-stable", cmd_is_stable, _GAME,
          ("--outcome", {**_REQUIRED, "help": "outcome file; only the structure is read"}),
          _ARB, ("--out", {"help": "write the stable outcome here"}),
          *decomp,
          help="find a stabilizing imputation", budget=oracle, lane=lane)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ocf", description=__doc__)
    ap.add_argument("--version", action="version", version=f"ocf {__version__}")
    sub = ap.add_subparsers(dest="family", required=True)

    for lane in ("oracle", "tree", "tw"):
        _solver_parsers(sub, lane)

    lsub = _family(sub, "lbg", "lbg_cmd", "linear bottleneck games")
    _leaf(lsub, "solve", cmd_lbg, _INSTANCE,
          ("--cross-check", {**_SWITCH, "help": "solve the dual separately too"}))
    _leaf(lsub, "core", cmd_lbg, _INSTANCE)
    _leaf(lsub, "verify", cmd_lbg, _INSTANCE,
          ("--grid", {"default": "1", "help": "withdrawal granularity p/q"}))
    _leaf(lsub, "gen-flow", cmd_lbg, _EDGES,
          ("--capacity", {"action": "append", "default": [], "help": "a-b=p/q"}),
          ("--supplier", {"action": "append", "default": [], "help": "s,t,W,pi"}),
          _MAX_PATH_LEN, _OUT)
    _leaf(lsub, "gen-market", cmd_lbg,
          ("--sellers", {**_REQUIRED, "help": "weights w,w,..."}),
          ("--buyers", {**_REQUIRED, "help": "weights w,w,..."}),
          ("--price", {"action": "append", "default": [], "help": "a-b=p/q"}),
          _OUT)
    _leaf(lsub, "gen-routing", cmd_lbg,
          ("--capacities", {**_REQUIRED, "help": "node weights w,w,..."}),
          _EDGES,
          ("--demand", {"action": "append", "default": [], "help": "s,t,pi"}),
          _MAX_PATH_LEN, _OUT)

    gsub = _family(sub, "gen", "gadget", "hardness-gadget fixtures")
    _leaf(gsub, "x3c", cmd_gen,
          ("--elements", {**_REQUIRED, "type": int}),
          ("--subset", {**_REQUIRED, "action": "append", "help": "e,e,e (repeatable)"}),
          _OUT)
    _leaf(gsub, "indep-set", cmd_gen,
          ("--vertices", {**_REQUIRED, "type": int}), _EDGES,
          ("--size", {**_REQUIRED, "type": int}), ("--eps", {"default": "1/10"}), _OUT)
    _leaf(gsub, "set-cover", cmd_gen,
          ("--elements-list", {**_REQUIRED, "help": "e,e,..."}),
          ("--subset", {**_REQUIRED, "action": "append", "help": "e,e,... (repeatable)"}),
          ("--cover-size", {**_REQUIRED, "type": int}),
          ("--game-out", _REQUIRED), ("--outcome-out", _REQUIRED),
          ("--decide", {**_SWITCH, "help": "run the brute deviation search"}),
          budget=True)

    vsub = _family(sub, "validate", "kind", "validate data files")
    _leaf(vsub, "game", cmd_validate, _PATH)
    _leaf(vsub, "outcome", cmd_validate, _PATH, _GAME,
          ("--ir-mode", {"choices": ("full-endowment", "unit"), "default": "full-endowment"}))
    _leaf(vsub, "decomp", cmd_validate, _PATH, _GAME)
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
