"""The (max,+) kernel against brute-force maxima on small random boxes."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ocf.covers import (
    Box,
    _frontier,
    chain,
    closure,
    convolve,
    line_chain,
    line_unchain,
    merge,
    single_cover,
    unchain,
    unwind,
)

NUMBERS = {
    "int": lambda rng: rng.randint(-5, 9),
    "fraction": lambda rng: Fraction(rng.randint(-5, 9), rng.choice((1, 2, 3, 7))),
}


def _box(caps):
    return list(product(*[range(c + 1) for c in caps]))


def _sub(r, a):
    return tuple(y - x for x, y in zip(a, r))


def _fits(a, r):
    return all(x <= y for x, y in zip(a, r))


def _random_table(rng, keys, number, none_share):
    return {k: None if rng.random() < none_share else number(rng) for k in keys}


def _closure_brute(caps, atoms, base):
    """max over atom multisets M with sum(M) <= r of base(r - sum M) + value(M)."""
    out = {}
    for r in _box(caps):
        best = None

        def rec(k, rest, acc):
            nonlocal best
            if k == len(atoms):
                if base[rest] is not None and (best is None or base[rest] + acc > best):
                    best = base[rest] + acc
                return
            a, v = atoms[k]
            while True:
                rec(k + 1, rest, acc)
                if not any(a) or not _fits(a, rest):
                    return
                rest, acc = _sub(rest, a), acc + v

        rec(0, r, 0)
        out[r] = best
    return out


def test_closure_matches_brute_force():
    rng = random.Random(5)
    for trial in range(240):
        kind = "int" if trial % 2 else "fraction"
        number = NUMBERS[kind]
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        atoms = []
        for _ in range(rng.randint(0, 4)):
            # some atoms exceed the caps on purpose
            a = tuple(rng.randint(0, c + 1) for c in caps)
            if any(a):
                atoms.append((a, number(rng)))
        base = _random_table(rng, _box(caps), number, 0.3 if trial % 3 else 0.0)
        best, picks = closure(caps, atoms, base)
        assert list(best) == _box(caps) and list(picks) == _box(caps)
        assert best == _closure_brute(caps, atoms, base)
        for r in _box(caps):
            if best[r] is None:
                assert picks[r] is None
                continue
            # walking the picks back rebuilds the value from base and atoms
            state, total, trail = r, 0, []
            while picks[state] is not None:
                trail.append(picks[state])
                a, v = atoms[picks[state]]
                assert _fits(a, state)
                state, total = _sub(state, a), total + v
            assert base[state] is not None and base[state] + total == best[r]
            assert unwind(atoms, picks, r) == (trail, state)
            assert type(best[r]) in (int, Fraction)


def test_closure_with_no_atoms_is_base():
    base = {(0,): 1, (1,): None, (2,): Fraction(5, 2)}
    best, picks = closure((2,), [], base)
    assert best == base and best is not base
    assert set(picks.values()) == {None}


def test_convolve_matches_brute_force():
    rng = random.Random(11)
    for trial in range(240):
        number = NUMBERS["int" if trial % 2 else "fraction"]
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        axes = sorted(rng.sample(range(len(caps)), rng.randint(0, len(caps))))
        none_share = 0.3 if trial % 3 else 0.0
        prev = _random_table(rng, _box(caps), number, none_share)
        # other's domain reaches one past the caps, so some z never fit
        other = _random_table(rng, _box([caps[p] + 1 for p in axes]), number, none_share)
        if trial % 5 == 0:
            # the zero vector alone: an identity merge, or a constant added
            other = {(0,) * len(axes): 0 if trial % 10 else number(rng)}
        out, picks = convolve(caps, prev, axes, other)
        assert list(out) == _box(caps) and list(picks) == _box(caps)
        for r in _box(caps):
            best, first = None, None
            for z, v in other.items():
                shift = [0] * len(caps)
                for p, zz in zip(axes, z):
                    shift[p] = zz
                if v is None or not _fits(shift, r):
                    continue
                rest = _sub(r, shift)
                if prev[rest] is None:
                    continue
                if best is None or prev[rest] + v > best:
                    best, first = prev[rest] + v, z
            assert out[r] == best and picks[r] == first
            if first is not None:
                rest = list(r)
                for p, zz in zip(axes, first):
                    rest[p] -= zz
                assert prev[tuple(rest)] + other[first] == out[r]


def test_convolve_over_an_empty_box_axis():
    # caps of zero leave one state; every z but the zero vector overflows
    out, picks = convolve((0, 2), {(0, 0): 1, (0, 1): 2, (0, 2): None}, [0], {(0,): 3, (1,): 100})
    assert out == {(0, 0): 4, (0, 1): 5, (0, 2): None}
    assert picks == {(0, 0): (0,), (0, 1): (0,), (0, 2): None}


SOLO_ATOMS = st.lists(
    st.tuples(
        st.tuples(st.integers(1, 8)),
        st.fractions(min_value=Fraction(1, 7), max_value=20, max_denominator=7),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(atoms=SOLO_ATOMS, weight=st.integers(0, 12), data=st.data())
def test_single_cover_prefix_answers_every_smaller_cap(atoms, weight, data):
    """The table over a whole weight, cut to a smaller cap, is the table over
    that cap: ``closure`` never reads a state above the one it fills.  A
    game builds one solo cover per agent and every solver reads its prefix."""
    cap = data.draw(st.integers(0, weight))
    full_values, full_picks = single_cover(atoms, weight)
    values, picks = single_cover(atoms, cap)
    assert full_values[: cap + 1] == values
    for w in range(cap + 1):
        assert unwind(atoms, full_picks, (w,)) == unwind(atoms, picks, (w,))


VALUES = st.one_of(st.none(), st.integers(-6, 9))


def _prefix_max(table):
    """Best value at or below each key of a box table; None is the lowest."""
    out = {}
    for r in table:
        vs = [v for z, v in table.items() if v is not None and _fits(z, r)]
        out[r] = max(vs, default=None)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_frontier_keeps_convolve_values_on_monotone_prev(data):
    """On a ``prev`` that is non-decreasing on every axis, the non-dominated
    entries of ``other`` give every value ``other`` gives, and each pick is
    one of them that reaches the value.  The bag engine's merges rely on it."""
    caps = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    axes = sorted(data.draw(st.sets(st.integers(0, len(caps) - 1))))
    prev = _prefix_max({r: data.draw(VALUES) for r in _box(caps)})
    # other's domain reaches one past the caps, so some z never fit
    other = {z: data.draw(VALUES) for z in _box([caps[p] + 1 for p in axes])}
    front = _frontier(other)
    assert list(front) == sorted(front)
    for z, v in other.items():
        dominated = v is None or any(
            w is not None and w >= v and y != z and _fits(y, z) for y, w in other.items()
        )
        assert (z in front) == (not dominated)
        if z in front:
            assert front[z] == v
    out, _ = convolve(caps, prev, axes, other)
    pruned, picks = convolve(caps, prev, axes, front)
    assert pruned == out
    for r, z in picks.items():
        if z is None:
            assert out[r] is None
            continue
        assert z in front
        rest = list(r)
        for p, zz in zip(axes, z):
            rest[p] -= zz
        assert prev[tuple(rest)] + front[z] == out[r]


def test_frontier_of_a_sparse_table():
    # keys need not fill a box; equal values at larger keys are dominated
    table = {(0, 2): 1, (3, 0): 2, (3, 3): 2, (5, 5): 7, (1, 4): None}
    assert _frontier(table) == {(0, 2): 1, (3, 0): 2, (5, 5): 7}
    assert _frontier({}) == {} and _frontier({(): 5}) == {(): 5} and _frontier({(): None}) == {}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chain_is_convolve_layer_by_layer_and_unchain_reads_it_back(data):
    """``chain`` is ``convolve`` applied layer after layer, and ``unchain``
    splits every reachable state into a state of the first table plus one
    pick per layer whose values add up to the chained value."""
    caps = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    base = {r: data.draw(VALUES) for r in _box(caps)}
    layers = []
    for _ in range(data.draw(st.integers(0, 4))):
        axes = sorted(data.draw(st.sets(st.integers(0, len(caps) - 1))))
        # the layer's domain reaches one past the caps, so some z never fit
        other = {z: data.draw(VALUES) for z in _box([caps[p] + 1 for p in axes])}
        layers.append((axes, other))
    out, trail = chain(caps, base, layers)
    table, steps = base, []
    for axes, other in layers:
        table, picks = convolve(caps, table, axes, other)
        steps.append((axes, picks))
    assert out == table and trail == steps
    for r, v in out.items():
        if v is None:
            continue
        picks, rest = unchain(trail, r)
        assert len(picks) == len(layers) and _fits(rest, caps)
        total = list(rest)
        for (axes, _), z in zip(layers, picks):
            for p, zz in zip(axes, z):
                total[p] += zz
        assert tuple(total) == r
        assert base[rest] + sum(other[z] for (_, other), z in zip(layers, picks)) == v


def test_box_pairs_are_the_shifted_states_in_product_order():
    """``pairs(shift)`` is every ``(r, r - shift)`` with ``r`` in the box, in
    product order, and nothing once the shift passes the caps.  Both sides
    are the box's own key objects, and asking again returns the kept answer."""
    for caps in [(), (0,), (3,), (2, 0, 1), (1, 3), (2, 2, 2)]:
        box = Box(caps)
        assert box.keys == tuple(_box(caps))
        ids = {id(k) for k in box.keys}
        for shift in _box([c + 1 for c in caps]):
            want = [(r, _sub(r, shift)) for r in _box(caps) if _fits(shift, r)]
            hi, lo = got = box.pairs(shift)
            assert list(zip(hi, lo)) == want
            assert all(id(r) in ids for r in hi + lo)
            assert box.pairs(shift) is got


def test_kernel_reads_equal_keys_like_canonical_ones():
    """A table keyed by tuples equal to the box's keys, but other objects,
    gives the same ``(out, picks)`` as one keyed by the keys themselves,
    through ``convolve``, ``closure`` and ``chain``."""
    rng = random.Random(23)
    for trial in range(60):
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
        box = Box(caps)
        values = [rng.choice((None, rng.randint(-4, 9))) for _ in box.keys]
        canonical = dict(zip(box.keys, values))
        fresh = {tuple(list(r)): v for r, v in canonical.items()}
        assert all(a is not b for a, b in zip(fresh, canonical) if a)
        axes = sorted(rng.sample(range(len(caps)), rng.randint(0, len(caps))))
        other = {z: rng.randint(-3, 9) for z in _box([caps[p] + 1 for p in axes])}
        atoms = [(a, rng.randint(1, 9)) for a in _box(caps) if any(a)][: rng.randint(0, 4)]
        assert convolve(box, fresh, axes, other) == convolve(box, canonical, axes, other)
        assert convolve(caps, fresh, axes, other) == convolve(box, canonical, axes, other)
        assert closure(box, atoms, fresh) == closure(caps, atoms, canonical)
        layers = [(axes, other), (axes, {z: v - 1 for z, v in other.items()})]
        assert chain(box, fresh, layers) == chain(caps, canonical, layers)


def test_kernel_on_a_box_with_no_axes():
    """The box with no axes holds one state, the empty tuple; every kernel
    call over it works on that state alone."""
    box = Box(())
    assert box.keys == ((),) and box.pairs(()) == (((),), ((),))
    assert convolve(box, {(): 3}, [], {(): 2}) == ({(): 5}, {(): ()})
    assert convolve((), {(): None}, [], {(): 2}) == ({(): None}, {(): None})
    assert convolve(box, {(): 1}, [], {(): None}) == ({(): None}, {(): None})
    assert closure(box, [], {(): 1}) == ({(): 1}, {(): None})
    table, trail = chain(box, {(): 0}, [([], {(): 1}), ([], {(): 2})])
    assert table == {(): 3} and unchain(trail, ()) == ([(), ()], ())


def test_line_chain_is_chain_on_one_axis():
    """``line_chain`` over lists gives ``chain``'s values over ``Box((cap,))``
    and its first-best picks, on ``int`` and ``Fraction`` rows with None
    entries, entries beyond the cap and lone zero rows; few distinct values,
    so many states tie.  ``line_unchain`` rebuilds every reachable value."""
    rng = random.Random(41)
    lone = 0
    for trial in range(400):
        number = NUMBERS["int" if trial % 2 else "fraction"]

        def value(share):
            return None if rng.random() < share else number(rng) % 3

        cap = rng.randint(0, 5)
        start = [value(0.2 if trial % 3 else 0.0) for _ in range(cap + 1)]
        layers = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.2:
                layers.append([value(0.3)])  # one entry, at z = 0
                lone += layers[-1][0] is not None
            else:
                layers.append([value(0.25) for _ in range(rng.randint(1, cap + 3))])
        table, trail = line_chain(start, layers)
        box = Box((cap,))
        want, want_trail = chain(
            box,
            dict(zip(box.keys, start)),
            [((0,), {(z,): v for z, v in enumerate(row)}) for row in layers],
        )
        assert table == list(want.values())
        assert trail == [[None if z is None else z[0] for z in picks.values()] for _, picks in want_trail]
        for r, v in enumerate(table):
            if v is None:
                continue
            picks, rest = line_unchain(trail, r)
            assert rest + sum(picks) == r and len(picks) == len(layers)
            assert start[rest] + sum(row[z] for row, z in zip(layers, picks)) == v
    assert lone >= 20


def _random_region(rng, caps, shift):
    """Per axis, the values ``r`` may take at ``shift``, as the bag engine
    asks for them on a box whose coordinate 0 is an out state: every level
    (out included) where the shift is 0, the levels from the shift up
    (floored), one pinned value, or out and the cap; each at least the
    shift, and sometimes empty."""
    region = []
    for s, c in zip(shift, caps):
        kind = rng.choice(("all", "floored", "pinned", "ends"))
        if kind == "all" and s == 0:
            axis = range(c + 1)
        elif kind in ("all", "floored"):
            axis = range(s + rng.randint(0, 1), c + 1)
        elif kind == "pinned":
            axis = (rng.randint(s, c),) if s <= c else ()
        else:
            axis = tuple(sorted({x for x in (0, c) if x >= s}))
        region.append(axis)
    return tuple(region)


def test_box_pairs_sweep_a_region_like_brute_force():
    """``pairs(shift, region)`` is every ``(r, r - shift)`` with each
    coordinate of ``r`` among its axis's region values, in product order:
    regions that pin an axis, floor it at the shift or above, keep out and
    the cap, or leave it whole.  Both sides are the box's own key objects,
    a repeated request returns the kept answer, and a zero shift pairs
    each state with itself."""
    rng = random.Random(29)
    for trial in range(300):
        caps = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
        box = Box(caps)
        ids = {id(k) for k in box.keys}
        shift = tuple(rng.randint(0, c) if rng.random() < 0.6 else 0 for c in caps)
        region = _random_region(rng, caps, shift)
        want = [
            (r, _sub(r, shift))
            for r in _box(caps)
            if all(x in axis for x, axis in zip(r, region))
        ]
        hi, lo = got = box.pairs(shift, region)
        assert list(zip(hi, lo)) == want
        assert all(id(r) in ids for r in hi + lo)
        assert box.pairs(shift, region) is got
        if not any(shift):
            assert hi == lo


def test_merge_raises_each_state_to_its_best_move():
    """``merge`` over regions: every state of a move's region rises to the
    best of ``prev`` at ``r - shift`` plus the move's value, the first best
    move's label is picked, and a state no move raises keeps ``out``'s value
    and no pick.  ``prev`` may be ``out`` itself, as in ``closure``."""
    rng = random.Random(31)
    for trial in range(200):
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        box = Box(caps)
        prev = _random_table(rng, box.keys, NUMBERS["int"], 0.25)
        start = _random_table(rng, box.keys, NUMBERS["int"], 0.6)
        moves = []
        for label in range(rng.randint(0, 5)):
            shift = tuple(rng.randint(0, c) for c in caps)
            moves.append((shift, _random_region(rng, caps, shift), rng.randint(-3, 6) % 4, label))
        out, picks = dict(start), {}
        merge(box.pairs, prev, moves, out, picks)
        for r in box.keys:
            best, first = start[r], None
            for shift, region, v, label in moves:
                if all(x in axis for x, axis in zip(r, region)):
                    p = prev[_sub(r, shift)]
                    if p is not None and (best is None or p + v > best):
                        best, first = p + v, label
            assert out[r] == best and picks.get(r) == first
        # in place: the unbounded knapsack of closure
        atoms = [(a, v) for a, _, v, _ in moves if any(a)]
        base = dict(prev)
        merge(box.pairs, base, [(a, None, v, k) for k, (a, v) in enumerate(atoms)], base, {})
        assert base == closure(caps, atoms, prev)[0]


def _below_with_outs(y, z):
    """``y <= z`` with the same axes out: coordinate 0 is out, and no
    member level is below or above it."""
    return all((a == 0) == (b == 0) and a <= b for a, b in zip(y, z))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_frontier_out_state_rule_is_dominance_within_an_out_pattern(data):
    """With ``out``, an entry is dominated only by another at smaller or
    equal member levels with the same axes out (brute force over all pairs),
    on one axis and on several, with sparse keys.  A table non-decreasing
    in member levels within each out pattern then gets every ``merge``
    value from the frontier."""
    n = data.draw(st.integers(1, 3))
    keys = data.draw(st.sets(st.tuples(*[st.integers(0, 4)] * n), max_size=20))
    table = {z: data.draw(VALUES) for z in sorted(keys)}
    front = _frontier(table, out=True)
    assert list(front) == sorted(front)
    for z, v in table.items():
        dominated = v is None or any(
            w is not None and w >= v and y != z and _below_with_outs(y, z) for y, w in table.items()
        )
        assert (z in front) == (not dominated), (z, table)
        if z in front:
            assert front[z] == v
    # merged into a prev that rises with member levels within each out pattern
    caps = (4,) * n
    box = Box(caps)
    prev = {r: sum(r) + 10 * sum(x == 0 for x in r) for r in box.keys}
    def moves(t):
        out = []
        for z, v in t.items():
            if v is not None:
                shift = tuple(max(x - 1, 0) for x in z)
                region = tuple((0,) if x == 0 else range(x, 5) for x in z)
                out.append((shift, region, v, z))
        return out
    full, pruned = dict.fromkeys(box.keys), dict.fromkeys(box.keys)
    merge(box.pairs, prev, moves(table), full, {})
    merge(box.pairs, prev, moves(front), pruned, {})
    assert full == pruned
