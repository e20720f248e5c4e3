"""Point sampling, membership, tangent frames, gauge classes, quotients."""

import warnings
from fractions import Fraction

import pytest

from qplab import (
    CotangentRep,
    GaugeError,
    MembershipError,
    PointOnX,
    canonical_gauge,
    canonical_pencil,
    derived_rng,
    quotient_even,
    quotient_full,
    sample_covector,
    sample_pair,
    sample_point,
    tangent_frame,
)
from qplab.linalg import in_span, nullspace_exact, rank_exact
from qplab.variety import _independent_subset

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
        assert len(frame.quotient_basis) == 2 * p.g - 1
        assert frame.S_basis[0] == list(x.coords)
        # S is the common orthogonal of the two gradient rows
        for w in frame.S_basis:
            assert sum((a * b for a, b in zip(p.q1_row(x.coords), w)), start=Fraction(0)) == 0
            assert sum((a * b for a, b in zip(p.q2_row(x.coords), w)), start=Fraction(0)) == 0
        # the quotient basis stays independent after adding v
        assert not in_span(frame.quotient_basis, list(x.coords))


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


def test_canonical_gauge_idempotent_and_equivalent():
    x = sample_point(P2, 29)
    xi = sample_covector(x, 29)
    can = canonical_gauge(xi)
    again = canonical_gauge(can)
    assert [a - b for a, b in zip(can.eta, again.eta)] == [0] * 6
    # difference is a combination of the gauge generators
    diff = [a - b for a, b in zip(xi.eta, can.eta)]
    gens = [P2.q1_row(x.coords), P2.q2_row(x.coords)]
    assert rank_exact(gens + [diff]) == 2


def test_quotient_maps():
    x = sample_point(P2, 31)
    sq = quotient_full(x)
    assert all(s == c * c for s, c in zip(sq, x.coords))
    ext = quotient_even(x)
    assert len(ext) == 7
    prod = x.coords[0]
    for c in x.coords[1:]:
        prod = prod * c
    assert ext[-1] == prod


def greedy_independent(vectors, count=None):
    """Oracle: keep each vector outside the span of those already kept."""
    chosen = []
    for w in vectors:
        if len(chosen) == count:
            break
        if not in_span(chosen, w):
            chosen.append(w)
    return chosen


def test_independent_subset_matches_greedy_span_loop():
    for p, seed in ((P2, 37), (P3, 37), (P3, 38)):
        x = sample_point(p, seed)
        v = x.coords
        s_all = nullspace_exact([p.q1_row(v), p.q2_row(v)])
        zero = [c - c for c in v]
        # dependent vectors (repeats, multiples, sums, zero) among independent ones
        family = [s_all[1], [2 * c for c in s_all[1]], zero, s_all[0],
                  [a - b for a, b in zip(s_all[0], s_all[1])]] + s_all[2:] + [list(v)]
        rank = len(greedy_independent(family))
        assert rank == rank_exact(family)
        for count in range(1, rank + 1):
            assert _independent_subset(family, count) == greedy_independent(family, count)
        with pytest.raises(ArithmeticError):
            _independent_subset(family, rank + 1)
