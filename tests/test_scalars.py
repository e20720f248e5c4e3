"""Arithmetic laws of the biquadratic extension and scalar utilities."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qplab import (
    Biquad,
    BiquadContext,
    CotangentRep,
    ModeMismatchError,
    NonInvertibleError,
    PointOnX,
    SkewMap,
    canonical_pencil,
    cli,
    det_exact,
    interpolate_binary_form,
    nullspace_exact,
    sample_pair,
    solve_exact,
    to_complex,
)
from qplab.linalg import check_exact_matrix
from qplab.scalars import (
    _common_numerators,
    _make,
    _product_numerators,
    rational_to_string,
    scalar_to_json,
)

CTX = BiquadContext(10, -14)
# the property tests run in every context; sample_point yields non-integer
# radicands whenever lambda_1 - lambda_0 is not +-1
CONTEXTS = [CTX, BiquadContext(Fraction(5, 3), Fraction(-7, 2))]

small_rats = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)
coords = st.tuples(small_rats, small_rats, small_rats, small_rats)


@given(coords, coords, coords)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(ca, cb, cc):
    for ctx in CONTEXTS:
        a, b, c = (Biquad(ctx, *t) for t in (ca, cb, cc))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ctx.embed(0)
        assert a * ctx.embed(1) == a


@given(coords, coords)
@settings(max_examples=100, deadline=None)
def test_product_matches_fraction_formula(ca, cb):
    # reference: the product written out over Fraction coordinates
    for ctx in CONTEXTS:
        u, w = ctx.u, ctx.w
        a0, a1, a2, a3 = ca
        b0, b1, b2, b3 = cb
        want = (
            a0 * b0 + u * a1 * b1 + w * a2 * b2 + u * w * a3 * b3,
            a0 * b1 + a1 * b0 + w * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + u * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )
        assert (Biquad(ctx, *ca) * Biquad(ctx, *cb)).c == want


@given(coords)
@settings(max_examples=100, deadline=None)
def test_norm_is_multiplicative_embedding(ca):
    # norm agrees with the complex absolute values of the four conjugates
    for ctx in CONTEXTS:
        a = Biquad(ctx, *ca)
        n = a.norm()
        conj = [a, a.conj_u(), a.conj_w(), a.conj_u().conj_w()]
        prod = conj[0]
        for c in conj[1:]:
            prod = prod * c
        assert prod == ctx.embed(n)


@given(coords, coords)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative(ca, cb):
    for ctx in CONTEXTS:
        a, b = Biquad(ctx, *ca), Biquad(ctx, *cb)
        assert (a * b).norm() == a.norm() * b.norm()


@given(coords)
@settings(max_examples=100, deadline=None)
def test_inverse_or_zero_norm(ca):
    for ctx in CONTEXTS:
        a = Biquad(ctx, *ca)
        if a.norm() != 0:
            assert a * a.inverse() == ctx.embed(1)
        else:
            with pytest.raises(NonInvertibleError):
                a.inverse()


@given(small_rats)
@example(Fraction(0))
@example(Fraction(-3, 7))
@settings(max_examples=60, deadline=None)
def test_rational_inverse_matches_general_formula(q):
    # the fast path for rational-valued elements gives the fields of the
    # general formula, for both signs; zero is still refused
    for ctx in CONTEXTS:
        for a in (ctx.embed(q), ctx.embed(-q)):
            if not q:
                with pytest.raises(NonInvertibleError):
                    a.inverse()
                continue
            inv = a.inverse()
            general = a._inverse_by_norm()
            assert (inv._n, inv._d) == (general._n, general._d)
            assert inv._d > 0 and inv * a == ctx.embed(1)


@given(coords, coords, small_rats.filter(bool))
@settings(max_examples=60, deadline=None)
def test_equal_elements_hash_equal_and_reduced(ca, cb, q):
    for ctx in CONTEXTS:
        a, b = Biquad(ctx, *ca), Biquad(ctx, *cb)
        pairs = [
            (a * b, b * a),
            ((a + b) - b, a),
            ((a / q) * q, a),
            (a * q, q * a),
            (a - a, ctx.embed(0)),
            (Biquad(ctx, *(2 * c for c in ca)), a + a),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert all(gcd(c.numerator, c.denominator) == 1 for c in x.c)


def test_division_by_zero_rational_raises():
    for ctx in CONTEXTS:
        a = ctx.sqrt_u() + 1
        for zero in (0, Fraction(0), ctx.embed(0)):
            with pytest.raises(ZeroDivisionError):
                a / zero
        with pytest.raises(ZeroDivisionError):
            1 / ctx.embed(0)


def test_square_roots_square_to_radicands():
    assert CTX.sqrt_u() * CTX.sqrt_u() == CTX.embed(10)
    assert CTX.sqrt_w() * CTX.sqrt_w() == CTX.embed(-14)
    rs = CTX.sqrt_u() * CTX.sqrt_w()
    assert rs * rs == CTX.embed(-140)


def test_zero_divisors_exist_in_split_context():
    # u = 4 is a rational square: (sqrt(u)-2)(sqrt(u)+2) = 0
    ctx = BiquadContext(4, 3)
    a = ctx.sqrt_u() - 2
    b = ctx.sqrt_u() + 2
    assert a * b == ctx.embed(0)
    assert a.norm() == 0
    with pytest.raises(NonInvertibleError):
        a.inverse()


def test_context_mixing_rejected():
    other = BiquadContext(10, -15)
    with pytest.raises(ModeMismatchError):
        CTX.sqrt_u() + other.sqrt_u()


def test_rational_interop():
    a = CTX.sqrt_u() + Fraction(1, 2)
    assert Fraction(1, 2) + CTX.sqrt_u() == a
    assert 2 * a == a + a
    assert a - Fraction(1, 2) == CTX.sqrt_u()
    assert (Fraction(3) / CTX.embed(3)) == CTX.embed(1)


def test_to_complex_consistent():
    a = Biquad(CTX, 1, 2, 3, 4)
    z = to_complex(a)
    import cmath

    ru, rw = cmath.sqrt(10), cmath.sqrt(-14)
    assert abs(z - (1 + 2 * ru + 3 * rw + 4 * ru * rw)) < 1e-12


def test_scalar_modes():
    # a matrix of rationals has no context, one with a Biquad entry has that
    # entry's; float, complex and unsupported entries are refused, by the
    # check and by the routines that run it
    assert check_exact_matrix([[Fraction(1, 2), 3]]) is None
    assert check_exact_matrix([[3, CTX.sqrt_u()]]) is CTX
    for bad in (1.5, 1.0 + 0j, "nope"):
        m = [[Fraction(1), CTX.sqrt_u()], [bad, 2]]
        with pytest.raises(ModeMismatchError):
            check_exact_matrix(m)
        with pytest.raises(ModeMismatchError):
            nullspace_exact(m)
        with pytest.raises(ModeMismatchError):
            solve_exact(m, [1, 2])
        with pytest.raises(ModeMismatchError):
            det_exact(m)
        with pytest.raises(ModeMismatchError):
            det_exact([[Fraction(1), bad], [2, 3]])
    with pytest.raises(ModeMismatchError):
        check_exact_matrix([[CTX.sqrt_u()], [BiquadContext(10, -15).sqrt_u()]])


def test_as_fraction_and_json():
    assert scalar_to_json(Fraction(-3, 4)) == "-3/4"
    assert scalar_to_json(Biquad(CTX, 1, Fraction(1, 2), 0, 0)) == [
        "1",
        "1/2",
        "0",
        "0",
    ]
    with pytest.raises(ModeMismatchError):
        scalar_to_json(1 + 2j)
    assert rational_to_string(Fraction(5)) == "5"


def test_constructors_reject_float_entries(capsys):
    # every scalar is a Fraction or a Biquad: outside input with a float or
    # complex entry is refused where it enters, and the CLI has no float mode
    p = canonical_pencil(2)
    x, xi = sample_pair(p, 3)
    with pytest.raises(ModeMismatchError):
        PointOnX(p, [to_complex(c) for c in x.coords])
    with pytest.raises(ModeMismatchError):
        CotangentRep(x, [to_complex(c) for c in xi.eta])
    with pytest.raises(ModeMismatchError):
        SkewMap([[Fraction(0), 2.0], [Fraction(-2), Fraction(0)]])
    with pytest.raises(ModeMismatchError):
        interpolate_binary_form([(Fraction(0), 1.0), (Fraction(1), Fraction(2))], 1)
    with pytest.raises(ModeMismatchError):
        interpolate_binary_form([(0.5, Fraction(1)), (Fraction(1), Fraction(2))], 1)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--g", "2", "--no-exact"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-exact" in capsys.readouterr().err


# -- numerator views: the entrywise product of two views ---------------------


@st.composite
def _view_pairs(draw):
    """Two exact vectors of one length and at most one context: rational,
    Biquad or mixed entries, rational-valued elements among them."""
    ctx = draw(st.sampled_from(CONTEXTS))
    entries = {
        "rational": st.one_of(st.integers(-9, 9), small_rats),
        "biquad": st.one_of(coords.map(lambda c: Biquad(ctx, *c)), small_rats.map(ctx.embed)),
    }
    entries["mixed"] = st.one_of(entries["rational"], entries["biquad"])
    n = draw(st.integers(1, 5))
    return tuple(
        draw(st.lists(entries[draw(st.sampled_from(sorted(entries)))], min_size=n, max_size=n))
        for _ in range(2)
    )


@given(_view_pairs())
@settings(max_examples=200, deadline=None)
def test_product_numerators_reduce_to_the_entrywise_products(case):
    # each product numerator reduced once, by _make under the context and as
    # a Fraction without one, has the fields of a_k * b_k by the operators
    a, b = case
    ctx, nums, d = _product_numerators(_common_numerators(a), _common_numerators(b))
    for x, y, n in zip(a, b, nums):
        want = x * y
        if ctx is None:
            assert type(n) is int
            got, want = Fraction(n, d), Fraction(want)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        else:
            if not isinstance(want, Biquad):
                want = ctx.embed(want)
            got = _make(ctx, *n, d)
            assert (got.ctx, got._n, got._d) == (want.ctx, want._n, want._d)


def test_product_numerators_refuse_two_contexts():
    a = _common_numerators([CTX.sqrt_u(), Fraction(1, 2)])
    for other in ([BiquadContext(2, 3).sqrt_w(), 3], [1, BiquadContext(2, 3).embed(1)]):
        with pytest.raises(ModeMismatchError):
            _product_numerators(a, _common_numerators(other))
        with pytest.raises(ModeMismatchError):
            _product_numerators(_common_numerators(other), a)
    # an equal context in another object is the same context
    twin = _common_numerators([BiquadContext(10, -14).sqrt_u(), 2])
    ctx, nums, d = _product_numerators(a, twin)
    assert [_make(ctx, *n, d) for n in nums] == [CTX.embed(10), CTX.embed(1)]
