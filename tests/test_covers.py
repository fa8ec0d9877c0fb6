"""The (max,+) kernel against brute-force maxima on small random boxes."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ocf.covers import (
    Box,
    _frontier,
    _pairs,
    chain,
    closure,
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


def _listed(box, table):
    """A table keyed by states, as the list over ``box`` the kernel sweeps."""
    return [table[r] for r in box.keys]


def _keyed(box, values):
    """A list over ``box`` keyed back by the states of its positions."""
    assert len(values) == len(box.keys)
    return dict(zip(box.keys, values))


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


def _layer_keys(caps, axes):
    """Shifts over the whole box that are 0 off ``axes`` and reach one past
    the caps on them, so some never fit."""
    return _box([c + 1 if p in axes else 0 for p, c in enumerate(caps)])


def _convolve_brute(caps, prev, layer):
    """One layer by brute force: for each state, the best ``prev(r - z) +
    layer(z)`` over the shifts that fit, and the first shift that reaches it."""
    out, picks = {}, {}
    for r in _box(caps):
        best, first = None, None
        for z, v in layer.items():
            if v is None or not _fits(z, r) or prev[_sub(r, z)] is None:
                continue
            if best is None or prev[_sub(r, z)] + v > best:
                best, first = prev[_sub(r, z)] + v, z
        out[r], picks[r] = best, first
    return out, picks


def test_chain_of_one_layer_matches_brute_force():
    rng = random.Random(11)
    for trial in range(240):
        number = NUMBERS["int" if trial % 2 else "fraction"]
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        axes = sorted(rng.sample(range(len(caps)), rng.randint(0, len(caps))))
        none_share = 0.3 if trial % 3 else 0.0
        prev = _random_table(rng, _box(caps), number, none_share)
        layer = _random_table(rng, _layer_keys(caps, axes), number, none_share)
        if trial % 5 == 0:
            # the zero vector alone: an identity merge, or a constant added
            layer = {(0,) * len(caps): 0 if trial % 10 else number(rng)}
        box = Box(caps)
        out, (picks,) = chain(box, _listed(box, prev), [layer])
        out, picks = _keyed(box, out), _keyed(box, picks)
        assert (out, picks) == _convolve_brute(caps, prev, layer)
        for r, z in picks.items():
            if z is not None:
                assert prev[_sub(r, z)] + layer[z] == out[r]


def test_chain_over_an_empty_box_axis():
    # caps of zero leave one state; every shift off that axis's 0 overflows
    out, (picks,) = chain(Box((0, 2)), [1, 2, None], [{(0, 0): 3, (1, 0): 100}])
    assert out == [4, 5, None]
    assert picks == [(0, 0), (0, 0), None]


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
def test_frontier_keeps_chain_values_on_monotone_prev(data):
    """On a ``prev`` that is non-decreasing on every axis, the non-dominated
    entries of a layer give every value the layer gives, and each pick is
    one of them that reaches the value.  The bag engine's merges rely on it."""
    caps = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    axes = sorted(data.draw(st.sets(st.integers(0, len(caps) - 1))))
    prev = _prefix_max({r: data.draw(VALUES) for r in _box(caps)})
    layer = {z: data.draw(VALUES) for z in _layer_keys(caps, axes)}
    front = _frontier(layer)
    assert list(front) == sorted(front)
    for z, v in layer.items():
        dominated = v is None or any(
            w is not None and w >= v and y != z and _fits(y, z) for y, w in layer.items()
        )
        assert (z in front) == (not dominated)
        if z in front:
            assert front[z] == v
    box = Box(caps)
    out, _ = chain(box, _listed(box, prev), [layer])
    pruned, (picks,) = chain(box, _listed(box, prev), [front])
    assert pruned == out
    out = _keyed(box, out)
    for r, z in zip(box.keys, picks):
        if z is None:
            assert out[r] is None
            continue
        assert z in front
        assert prev[_sub(r, z)] + front[z] == out[r]


def test_frontier_of_a_sparse_table():
    # keys need not fill a box; equal values at larger keys are dominated
    table = {(0, 2): 1, (3, 0): 2, (3, 3): 2, (5, 5): 7, (1, 4): None}
    assert _frontier(table) == {(0, 2): 1, (3, 0): 2, (5, 5): 7}
    assert _frontier({}) == {} and _frontier({(): 5}) == {(): 5} and _frontier({(): None}) == {}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chain_convolves_layer_by_layer_and_unchain_reads_it_back(data):
    """``chain`` is one convolution per layer, in turn (brute force), and
    ``unchain`` splits every reachable state into a state of the first
    table plus one pick per layer whose values add up to the chained value."""
    caps = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    base = {r: data.draw(VALUES) for r in _box(caps)}
    layers = []
    for _ in range(data.draw(st.integers(0, 4))):
        axes = sorted(data.draw(st.sets(st.integers(0, len(caps) - 1))))
        layers.append({z: data.draw(VALUES) for z in _layer_keys(caps, axes)})
    box = Box(caps)
    out, trail = chain(box, _listed(box, base), layers)
    table, steps = base, []
    for layer in layers:
        table, picks = _convolve_brute(caps, table, layer)
        steps.append(picks)
    assert _keyed(box, out) == table and [_keyed(box, picks) for picks in trail] == steps
    for at, (r, v) in enumerate(zip(box.keys, out)):
        if v is None:
            continue
        picks, rest = unchain(box, trail, at)
        rest = box.keys[rest]
        assert len(picks) == len(layers) and _fits(rest, caps)
        assert tuple(map(sum, zip(rest, *picks))) == r
        assert base[rest] + sum(layer[z] for layer, z in zip(layers, picks)) == v


def test_box_pairs_are_the_shifted_states_in_product_order():
    """``pairs(shift)`` is the positions of every ``(r, r - shift)`` with
    ``r`` in the box, in product order, and nothing once the shift passes
    the caps: ``_pairs`` on plain caps, read through ``keys``.  A state's
    position is its offset, and asking again returns the kept answer."""
    rng = random.Random(17)
    shapes = [(), (0,), (3,), (2, 0, 1), (1, 3), (2, 2, 2)]
    shapes += [tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 4))) for _ in range(20)]
    for caps in shapes:
        box = Box(caps)
        assert box.keys == tuple(_box(caps))
        assert [box.offset(r) for r in box.keys] == list(range(len(box.keys)))
        shifts = _box([c + 1 for c in caps])
        for shift in shifts if len(shifts) <= 64 else rng.sample(shifts, 64):
            want = [(r, _sub(r, shift)) for r in _box(caps) if _fits(shift, r)]
            hi, lo = got = box.pairs(shift)
            assert list(zip(*_pairs(caps, shift))) == want
            assert [(box.keys[p], box.keys[q]) for p, q in zip(hi, lo)] == want
            assert box.pairs(shift) is got


def _chain_by_dicts(caps, table, layers):
    """``chain`` as plain loops on dicts keyed by states: per layer, each
    entry in the layer's order raises every state it fits below to the
    table's value at the state less the entry, where that is higher."""
    trail = []
    for layer in layers:
        out, picks = dict.fromkeys(_box(caps)), dict.fromkeys(_box(caps))
        for z, v in layer.items():
            if v is None:
                continue
            for r in _box(caps):
                if _fits(z, r) and table[_sub(r, z)] is not None:
                    cand = table[_sub(r, z)] + v
                    if out[r] is None or cand > out[r]:
                        out[r], picks[r] = cand, z
        table = out
        trail.append(picks)
    return table, trail


def test_chain_over_positions_matches_a_dict_loop():
    """``chain`` on lists over a ``Box`` gives the values and picks of
    plain loops on tuple-keyed dicts, on ``int`` and ``Fraction`` tables
    with None entries, shifts past the caps and few distinct values, so
    that many states tie; ``unchain`` walks back to the same states."""
    rng = random.Random(23)
    for trial in range(120):
        number = NUMBERS["int" if trial % 2 else "fraction"]
        caps = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
        box = Box(caps)
        base = _random_table(rng, _box(caps), lambda rng: number(rng) % 3, 0.3)
        layers = []
        for _ in range(rng.randint(1, 3)):
            axes = sorted(rng.sample(range(len(caps)), rng.randint(0, len(caps))))
            layers.append(_random_table(rng, _layer_keys(caps, axes), lambda rng: number(rng) % 3, 0.2))
        out, trail = chain(box, _listed(box, base), layers)
        want, want_trail = _chain_by_dicts(caps, base, layers)
        assert _keyed(box, out) == want
        assert [_keyed(box, picks) for picks in trail] == want_trail
        for at, r in enumerate(box.keys):
            if out[at] is None:
                continue
            state, picks = r, []
            for steps in reversed(want_trail):
                picks.insert(0, steps[state])
                state = _sub(state, steps[state])
            assert unchain(box, trail, at) == (picks, box.offset(state))


def test_kernel_on_a_box_with_no_axes():
    """The box with no axes holds one state, the empty tuple; every kernel
    call over it works on that state alone."""
    box = Box(())
    assert box.keys == ((),) and box.strides == () and box.pairs(()) == ((0,), (0,))
    assert chain(box, [3], [{(): 2}]) == ([5], [[()]])
    assert chain(box, [None], [{(): 2}]) == ([None], [[None]])
    assert chain(box, [1], [{(): None}]) == ([None], [[None]])
    assert closure((), [], {(): 1}) == ({(): 1}, {(): None})
    table, trail = chain(box, [0], [{(): 1}, {(): 2}])
    assert table == [3] and unchain(box, trail, 0) == ([(), ()], 0)


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
        want, want_trail = chain(box, start, [{(z,): v for z, v in enumerate(row)} for row in layers])
        assert table == want
        assert trail == [[None if z is None else z[0] for z in picks] for picks in want_trail]
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
    the cap, or leave it whole.  Both sides are positions, ``_pairs`` read
    through ``keys``, a repeated request returns the kept answer, and a
    zero shift pairs each state with itself."""
    rng = random.Random(29)
    for trial in range(300):
        caps = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
        box = Box(caps)
        shift = tuple(rng.randint(0, c) if rng.random() < 0.6 else 0 for c in caps)
        region = _random_region(rng, caps, shift)
        want = [
            (r, _sub(r, shift))
            for r in _box(caps)
            if all(x in axis for x, axis in zip(r, region))
        ]
        hi, lo = got = box.pairs(shift, region)
        assert list(zip(*_pairs(caps, shift, region))) == want
        assert [(box.keys[p], box.keys[q]) for p, q in zip(hi, lo)] == want
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
        out, picks = _listed(box, start), {}
        merge(box.pairs, _listed(box, prev), moves, out, picks)
        for at, r in enumerate(box.keys):
            best, first = start[r], None
            for shift, region, v, label in moves:
                if all(x in axis for x, axis in zip(r, region)):
                    p = prev[_sub(r, shift)]
                    if p is not None and (best is None or p + v > best):
                        best, first = p + v, label
            assert out[at] == best and picks.get(at) == first
        # in place: the unbounded knapsack of closure
        atoms = [(a, v) for a, _, v, _ in moves if any(a)]
        base = _listed(box, prev)
        merge(box.pairs, base, [(a, None, v, k) for k, (a, v) in enumerate(atoms)], base, {})
        assert _keyed(box, base) == closure(caps, atoms, prev)[0]


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
    prev = [sum(r) + 10 * sum(x == 0 for x in r) for r in box.keys]
    def moves(t):
        out = []
        for z, v in t.items():
            if v is not None:
                shift = tuple(max(x - 1, 0) for x in z)
                region = tuple((0,) if x == 0 else range(x, 5) for x in z)
                out.append((shift, region, v, z))
        return out
    full, pruned = [None] * len(box.keys), [None] * len(box.keys)
    merge(box.pairs, prev, moves(table), full, {})
    merge(box.pairs, prev, moves(front), pruned, {})
    assert full == pruned
