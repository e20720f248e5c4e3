"""Point sampling, membership, tangent frames, gauge classes, quotients."""

import warnings
from fractions import Fraction

import pytest

from qplab import (
    BiquadContext,
    CotangentRep,
    GaugeError,
    MembershipError,
    NonInvertibleError,
    PencilOfQuadrics,
    PointOnX,
    canonical_pencil,
    derived_rng,
    nullspace_exact,
    quotient_even,
    sample_covector,
    sample_pair,
    sample_point,
    tangent_frame,
)
from qplab.linalg import in_span, rank_exact
from qplab.scalars import _common_numerators
from test_fibration import SPLIT_PAIRS, _typed_fields

P2 = canonical_pencil(2)
P3 = canonical_pencil(3)


def test_head_solve_reference_values():
    # tail (1,1,1,1) on the canonical g=2 pencil forces x0^2=10, x1^2=-14
    from qplab import BiquadContext

    ctx = BiquadContext(10, -14)
    coords = [ctx.sqrt_u(), ctx.sqrt_w()] + [ctx.embed(1)] * 4
    x = PointOnX(P2, coords)
    assert x.context().u == 10 and x.context().w == -14
    assert P2.q1(x.coords) == 0 and P2.q2(x.coords) == 0


def test_sampled_points_are_members():
    for i in range(5):
        x = sample_point(P2, 11, index=i)
        assert P2.q1(x.coords) == 0
        assert P2.q2(x.coords) == 0
        assert not x.on_Y


def test_on_y_sampling():
    y = sample_point(P2, 11, on_Y=True)
    assert y.on_Y
    assert not y.coords[-1]


def test_membership_rejected():
    with pytest.raises(MembershipError):
        PointOnX(P2, [Fraction(1)] * 6)


def test_determinism_and_substreams():
    a = sample_point(P2, 5, index=3)
    b = sample_point(P2, 5, index=3)
    c = sample_point(P2, 5, index=4)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()
    r1 = derived_rng(7, 0).integers(0, 1 << 30, size=4)
    r2 = derived_rng(7, 0).integers(0, 1 << 30, size=4)
    assert list(r1) == list(r2)


def test_derived_rng_reference_streams():
    # pinned: keys in [0, 2^63) draw the same streams as before the uint64 key
    assert list(derived_rng(1, 0).integers(0, 1 << 30, size=3)) == [
        492347575, 325953694, 783254411,
    ]
    assert list(derived_rng(1, -1).integers(0, 1 << 30, size=3)) == [
        419954210, 584780256, 67792069,
    ]


@pytest.mark.parametrize("a, b", [(-1, -2), (1 << 63, (1 << 63) + 1)])
def test_derived_rng_distinct_seeds_distinct_streams(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ra = derived_rng(a, 0).integers(0, 1 << 30, size=4)
        rb = derived_rng(b, 0).integers(0, 1 << 30, size=4)
    assert list(ra) != list(rb)


def _reference_stream(seed, index):
    """The generator derived_rng reproduces.  The key is built as a uint64
    array: a list that mixes keys below and above 2^63 would pass through
    float64 and lose its low bits."""
    import numpy as np

    mask = (1 << 64) - 1
    key = np.array([seed & mask, index & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# the ranges drawn in src and tier-1, one near 2^31 whose draws are redrawn
# about half the time, and two of width 2^32
ORACLE_RANGES = [
    (-9, 10), (-60, 61), (1, 13), (-5, 6), (1, 10), (0, 2), (0, 1 << 30),
    (0, (1 << 31) + 1), (0, 1 << 32), (-(1 << 31), 1 << 31),
]


@pytest.mark.parametrize("seed, index", [
    (0, 0), (1, 0), (7, 3), (-1, -1), (-9, 5), (5, 1 << 63),
    (1 << 63, (1 << 64) - 1), (3, (1 << 32) + 4), (3, (1 << 40) + 17),
    (3, (1 << 44) + 2), (2, 2 << 32), (8, (5 << 32) + 1), (-2, (1 << 64) + 6),
])
def test_derived_rng_matches_the_reference_generator(seed, index):
    # consecutive calls on one stream, with odd sizes, so that a call starts
    # in the high half of a word and the stream runs over many 4-word blocks
    ours, ref = derived_rng(seed, index), _reference_stream(seed, index)
    for size, (low, high) in zip((1, 3, 5, 7, 9, 11, 13, 3, 5, 1), ORACLE_RANGES):
        assert ours.integers(low, high, size) == ref.integers(low, high, size=size).tolist()


@pytest.mark.parametrize("low, high", [(0, 1), (4, 4), (3, -3), (0, (1 << 32) + 1)])
def test_derived_rng_rejects_ranges_outside_two_to_two_pow_32(low, high):
    with pytest.raises(ValueError):
        derived_rng(0, 0).integers(low, high, 1)


def test_point_json_roundtrip():
    x = sample_point(P2, 13)
    payload = x.to_json()
    assert payload["mode"] == "exact"
    y = PointOnX.from_json(P2, payload)
    assert y.to_json() == payload
    with pytest.raises(ValueError, match="not 'exact'"):
        PointOnX.from_json(P2, dict(payload, mode="float"))


def test_tangent_frame_dimensions():
    for p in (P2, P3):
        x = sample_point(p, 17)
        frame = tangent_frame(x)
        assert len(frame.S_basis) == 2 * p.g
        assert len(frame.S_basis[1:]) == 2 * p.g - 1
        assert frame.S_basis[0] == list(x.coords)
        # S is the common orthogonal of the two gradient rows
        for w in frame.S_basis:
            assert sum((a * b for a, b in zip(p.q1_row(x.coords), w)), start=Fraction(0)) == 0
            assert sum((a * b for a, b in zip(p.q2_row(x.coords), w)), start=Fraction(0)) == 0
        # the quotient basis stays independent after adding v
        assert not in_span(frame.S_basis[1:], list(x.coords))


def assert_frame_of_S(x, frame):
    """The frame spans the nullspace of the rows q1(v, .) and q2(v, .), and
    v lies off the span of the lifts."""
    p, v = x.pencil, x.coords
    ns = nullspace_exact([p.q1_row(v), p.q2_row(v)])
    assert rank_exact(frame) == rank_exact(ns) == rank_exact(frame + ns) == 2 * p.g
    assert not in_span(frame[1:], v)


# lambdas whose triples (0, 9, 25), (0, 25, -144) and (0, 9, -16) differ by
# rational squares up to sign, so X has points over Q(i) on three
# coordinates, and on four: (1, 1, i, i) and (1, 3, 3i, 0, i, 0)
PYTHAGOREAN = PencilOfQuadrics([0, 9, 25, -16, -144, 1])
GAUSSIAN_POINTS = [
    [(4, 0), (0, 5), (3, 0), 0, 0, 0],
    [(0, 13), 0, (12, 0), 0, (5, 0), 0],
    [(0, 5), (4, 0), 0, (3, 0), 0, 0],
    [(0, 5), (-4, 0), 0, (3, 0), 0, 0],
    [(1, 0), (1, 0), (0, 1), (0, 1), 0, 0],
    [(1, 0), (3, 0), (0, 3), 0, (0, 1), 0],
]


def gaussian_point(a, b=None):
    """The point a of X over Q(i) in Q(i, sqrt 2), a field; with b also a
    point, e a + (1 - e) b over Q(i, s) with s^2 = 1, for the idempotent
    e = (1 + s) / 2, a point of the split algebra Q(i)^2 with the zero
    divisors e and 1 - e."""
    ctx = BiquadContext(-1, 2 if b is None else 1)
    i = ctx.sqrt_u()

    def lift(c):
        return ctx.embed(0) if c == 0 else c[0] + c[1] * i

    if b is None:
        return PointOnX(PYTHAGOREAN, [lift(c) for c in a])
    e = (1 + ctx.sqrt_w()) * Fraction(1, 2)
    return PointOnX(PYTHAGOREAN, [e * lift(c) + (1 - e) * lift(d) for c, d in zip(a, b)])


def split_factor(c, sign):
    """The image of c in Q(i, s), s^2 = 1, under s -> sign: one of the two
    factors Q(i) of that split algebra, in the field Q(i, sqrt 2) of
    :func:`gaussian_point`."""
    c0, c1, c2, c3 = c.c
    ctx = BiquadContext(-1, 2)
    return ctx.embed(c0 + sign * c2) + (c1 + sign * c3) * ctx.sqrt_u()


def test_closed_form_frame_is_the_nullspace_basis():
    # sampled points on X and Y at g = 2..6 and in split contexts, and hand
    # built points with zero divisors: the frame spans the nullspace of the
    # rows q1(v, .), q2(v, .), and v lies off the span of its lifts.  A
    # basis over the split algebra Q(i)^2 is one in each factor, so there
    # the frame is tested in both, where the ranks divide by units only.
    # The frame raises NonInvertibleError exactly when no coordinate off the
    # pair is a unit: a with b and a with c; f with b, whose x_1 is a zero
    # divisor but x_4 a unit, and a with d, with x_2 a unit, do not raise
    points = [sample_point(canonical_pencil(g), 7, index=i, on_Y=y)
              for g in range(2, 7) for i in range(6) for y in (False, True)]
    points += [sample_point(canonical_pencil(g), s, index=i, on_Y=y)
               for g, s, i, y in SPLIT_PAIRS]
    a, b, c, c_flip, d, f = GAUSSIAN_POINTS
    points += [gaussian_point(a), gaussian_point(c)]
    split = [gaussian_point(a, w) for w in (b, c, d)]
    split += [gaussian_point(c, c_flip), gaussian_point(f, b)]
    raised = []
    for x in points + split:
        i, _, j, _ = x.pair()
        if not any(c and c.norm() for k, c in enumerate(x.coords) if k not in (i, j)):
            with pytest.raises(NonInvertibleError, match="no invertible coordinate off"):
                tangent_frame(x)
            raised.append(x)
            continue
        frame = tangent_frame(x).S_basis
        assert len(frame) == 2 * x.pencil.g and frame[0] == list(x.coords)
        if x not in split:
            assert_frame_of_S(x, frame)
            continue
        for sign in (1, -1):
            image = PointOnX(PYTHAGOREAN, [split_factor(c, sign) for c in x.coords])
            assert_frame_of_S(image, [[split_factor(c, sign) for c in w] for w in frame])
    assert raised == split[:2]


def test_frame_raises_when_the_rows_have_rank_two():
    # no point of X is nonzero on its pair alone (x_j^2 would vanish), so a
    # stand-in with the membership check bypassed holds such coordinates:
    # no coordinate off the pair is left to take the place of v
    ctx = BiquadContext(-1, 2)
    x = object.__new__(PointOnX)
    x.pencil, x.on_Y, x._pair, x._S = P2, False, None, None
    x.coords = [ctx.sqrt_u(), ctx.sqrt_w()] + [ctx.embed(0)] * 4
    x._nums = _common_numerators(x.coords)
    assert x.pair()[::2] == (0, 1)
    with pytest.raises(ArithmeticError, match="S has dimension 5, expected 4"):
        tangent_frame(x)


def test_covector_gauge_constraint():
    x = sample_point(P2, 19)
    xi = sample_covector(x, 19)
    pairing = sum((e * c for e, c in zip(xi.eta, x.coords)), start=Fraction(0))
    assert pairing == 0
    with pytest.raises(GaugeError):
        CotangentRep(x, [Fraction(1)] + [Fraction(0)] * 5)


def test_even_restricted_covector():
    y, xi = sample_pair(P2, 23, on_Y=True)
    assert xi.even_restricted
    assert not xi.eta[-1]
    x = sample_point(P2, 23)
    with pytest.raises(GaugeError):
        CotangentRep(x, sample_covector(x, 23).eta, even_restricted=True)


def test_quotient_maps():
    x = sample_point(P2, 31)
    ext = quotient_even(x)
    assert len(ext) == 7
    prod = x.coords[0]
    for c in x.coords[1:]:
        prod = prod * c
    assert ext[-1] == prod



# -- sampling on integer numerators against the Fraction construction -------

def sample_point_fraction_oracle(pencil, seed, index=0, on_Y=False):
    """sample_point as built with Fraction arithmetic and ctx.embed: the
    same draws, the head solved on the lambdas."""
    from qplab import BiquadContext

    rng = derived_rng(seed, index)
    n = pencil.dim_ambient
    lam0, lam1 = pencil.lambdas[0], pencil.lambdas[1]
    for _ in range(64):
        tail = [Fraction(int(v)) for v in rng.integers(-9, 10, size=n - 2)]
        if on_Y:
            tail[-1] = Fraction(0)
        if any(not t for t in (tail[:-1] if on_Y else tail)):
            continue
        a = sum(t * t for t in tail)
        b = sum(lam * t * t for lam, t in zip(pencil.lambdas[2:], tail))
        det = lam1 - lam0
        u0 = (-a * lam1 + b) / det
        u1 = (-b + lam0 * a) / det
        if u0 == 0 or u1 == 0:
            continue
        ctx = BiquadContext(u0, u1)
        return PointOnX(pencil, [ctx.sqrt_u(), ctx.sqrt_w()] + [ctx.embed(t) for t in tail])
    raise AssertionError("budget")


def sample_covector_dot_oracle(x, seed, index=0, even_restricted=False):
    """sample_covector with eta(v) summed by linalg.dot, term by term."""
    from qplab.linalg import dot
    from qplab.variety import _vanishes_on_S

    rng = derived_rng(seed, index + (1 << 32))
    n = x.pencil.dim_ambient
    pivot, inv_vp = x.pair()[:2]
    for _ in range(64):
        eta = [Fraction(int(c)) for c in rng.integers(-9, 10, size=n)]
        if even_restricted:
            eta[-1] = Fraction(0)
        eta[pivot] = Fraction(0)
        eta[pivot] = -(dot(x.coords, eta) * inv_vp)
        if not _vanishes_on_S(x, eta):
            return eta
    raise AssertionError("budget")


SAMPLING_PENCILS = [canonical_pencil(g) for g in range(2, 7)]


@pytest.mark.parametrize("p", SAMPLING_PENCILS, ids=[f"g{p.g}" for p in SAMPLING_PENCILS])
def test_sampling_matches_fraction_construction(p):
    # the integer head solve and the canonical coordinates give the point the
    # Fraction construction gives, field for field, and the covector sampler
    # the covector that dot gives
    for on_Y in (False, True):
        for index in range(50):
            x = sample_point(p, 3, index=index, on_Y=on_Y)
            want = sample_point_fraction_oracle(p, 3, index=index, on_Y=on_Y)
            assert _typed_fields(x.coords) == _typed_fields(want.coords), (on_Y, index)
            assert (x.context().u, x.context().w) == (want.context().u, want.context().w)
            assert type(x.context().u) is Fraction and type(x.context().w) is Fraction
            eta = sample_covector(x, 3, index=index, even_restricted=on_Y).eta
            want_eta = sample_covector_dot_oracle(want, 3, index=index, even_restricted=on_Y)
            assert _typed_fields(eta) == _typed_fields(want_eta), (on_Y, index)


def test_sampling_on_a_non_integer_pencil_matches_fraction_construction():
    from qplab import PencilOfQuadrics

    p = PencilOfQuadrics([Fraction(1, 2), -3, 2, Fraction(7, 3), 5, Fraction(-11, 4)])
    assert p.integer_form() == (12, (6, -36, 24, 28, 60, -33))
    for on_Y in (False, True):
        for index in range(20):
            x = sample_point(p, 9, index=index, on_Y=on_Y)
            want = sample_point_fraction_oracle(p, 9, index=index, on_Y=on_Y)
            assert _typed_fields(x.coords) == _typed_fields(want.coords)
            eta = sample_covector(x, 9, index=index, even_restricted=on_Y).eta
            assert _typed_fields(eta) == _typed_fields(
                sample_covector_dot_oracle(want, 9, index=index, even_restricted=on_Y))


# -- zero tests on numerators: a defect in an irrational coordinate only -----

def _irrational_units(ctx):
    """(name, unit, conjugation) for sqrt(u), sqrt(w) and sqrt(uw): the
    conjugation flips the sign of the unit."""
    r, s = ctx.sqrt_u(), ctx.sqrt_w()
    return [("sqrt_u", r, lambda c: c.conj_u()),
            ("sqrt_w", s, lambda c: c.conj_w()),
            ("sqrt_uw", r * s, lambda c: c.conj_u())]


def test_membership_rejects_a_defect_in_an_irrational_coordinate_only():
    # for a sampled x and l = 1 + e (e one of sqrt(u), sqrt(w), sqrt(uw)),
    # l*x lies on X; sending its rational-valued coordinate 2 through the
    # conjugation that flips e moves q1 and q2 by -4 e x_2^2 and
    # -4 e lambda_2 x_2^2: zero rational part, nonzero e part
    for g in (2, 3):
        p = canonical_pencil(g)
        x = sample_point(p, 5)
        for name, unit, conj in _irrational_units(x.context()):
            scaled = [(1 + unit) * c for c in x.coords]
            PointOnX(p, scaled)
            scaled[2] = conj(scaled[2])
            q1, q2 = p.q1(scaled), p.q2(scaled)
            assert q1 and q2 and not q1.c[0] and not q2.c[0], name
            message = f"q1={q1}, q2={q2} not both zero"
            with pytest.raises(MembershipError) as caught:
                PointOnX(p, scaled)
            assert str(caught.value) == message, name
        # x_2 and x_3 swapped keep q1 = 0 and move q2 alone
        swapped = list(x.coords)
        swapped[2], swapped[3] = swapped[3], swapped[2]
        assert swapped[2] * swapped[2] != swapped[3] * swapped[3]
        assert not p.q1(swapped) and p.q2(swapped)
        with pytest.raises(MembershipError):
            PointOnX(p, swapped)


def test_gauge_rejects_a_pairing_off_zero_in_an_irrational_coordinate_only():
    # eta + c e_0 pairs with v to c v_0 = c sqrt(u0): c = 1/7 and c = sqrt(w)/7
    # give a pairing in sqrt(u) or sqrt(uw) alone, and c e_1 one in sqrt(w)
    from qplab.linalg import dot

    x, xi = sample_pair(P3, 7)
    ctx = x.context()
    for k, c in [(0, Fraction(1, 7)), (1, Fraction(1, 7)), (0, ctx.sqrt_w() * Fraction(1, 7))]:
        eta = list(xi.eta)
        eta[k] = eta[k] + c
        pairing = dot(x.coords, eta)
        assert pairing and not pairing.c[0]
        with pytest.raises(GaugeError) as caught:
            CotangentRep(x, eta)
        assert str(caught.value) == f"eta(v) = {pairing} != 0"


def test_in_S_matches_the_rows_and_reads_every_coordinate():
    from qplab.linalg import matvec
    from test_p1bundle import _irrational_moves, _moved

    x = sample_point(P3, 7)
    for w in tangent_frame(x).S_basis:
        assert x.in_S(w)
        for move in _irrational_moves(x) + [[(3, Fraction(1, 7))]]:
            moved = _moved(w, move)
            assert any(matvec([P3.q1_row(x.coords), P3.q2_row(x.coords)], moved))
            assert not x.in_S(moved)
    assert x.in_S([0] * P3.dim_ambient)
