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
