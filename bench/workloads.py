"""The three benchmark workloads: inputs from a seed, one timed job, checks.

A workload object is built once per run (that is part of set-up time).  For
job number k it makes the input with ``make_input(k)``, outside the timed
region; ``run(inp)`` is the timed call into qplab; ``check(inp, out)`` raises
``CheckFailed`` when the output is wrong.  The checks use their own
arithmetic (Fractions and the public ``Biquad`` operators) and call no traced
qplab function, so they add nothing to the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import qplab
from qplab import cli
from qplab.scalars import scalar_to_json

DIGEST_FILE = Path(__file__).with_name("fh_digests.json")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


class VerifyAllG2:
    """``qplab verify-all --g 2`` in-process, one distinct seed per job."""

    name = "verify_all_g2"
    # Keeps a job near 4 s.  The fits (4g samples each) and the falsifiability
    # controls do not scale with the budget, so here they take most of a job.
    budget = "0.05"

    def __init__(self, seed: int):
        self.base = random.Random(seed).randrange(1 << 30)

    def make_input(self, k: int) -> int:
        return self.base + k

    def run(self, job_seed: int):
        argv = ["verify-all", "--g", "2", "--seed", str(job_seed),
                "--budget", self.budget]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, job_seed, out):
        code, text = out
        _require(code == 0, f"exit code {code}")
        _require(json.loads(text).get("pass") is True, "report has pass != true")

    def repeat_check(self, inp, out):
        """A second run of the same job must print byte-identical bytes."""
        _require(self.run(inp) == out, "repeated job gave different report bytes")


def normalized_fh_digest(form) -> str:
    """Digest of f_H divided by its first nonzero coefficient.

    The determinant of q_t restricted to H changes by a nonzero constant when
    the basis of H changes, so the normalised form is basis-independent.
    """
    lead = next(c for c in form.coeffs if c)
    coeffs = [scalar_to_json(c / lead) for c in form.coeffs]
    return hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:16]


class FibrationG4:
    """One sample of the g=4 fibration chain, from a fixed pool of samples.

    The pool is (POOL_SEED, index) for index < POOL_SIZE; the digests of the
    normalised f_H of every pool sample are stored in fh_digests.json.  The
    run seed picks the order in which the pool is visited.
    """

    name = "fibration_g4"
    g = 4
    POOL_SEED = 0
    POOL_SIZE = 256

    def __init__(self, seed: int, digests=None):
        self.pencil = qplab.canonical_pencil(self.g)
        if digests is None:
            digests = json.loads(DIGEST_FILE.read_text())["digests"]
        self.digests = digests
        self.order = random.Random(seed).sample(range(self.POOL_SIZE), self.POOL_SIZE)

    def make_input(self, k: int) -> int:
        return self.order[k % self.POOL_SIZE]

    def run(self, index: int):
        p = self.pencil
        x, xi = qplab.sample_pair(p, self.POOL_SEED, index=index)
        val = qplab.phi_X(x, xi)
        frame = qplab.tangent_frame(x)
        form = qplab.f_H(x, xi)
        kb = qplab.v_perp_kernel(p, x)
        split = qplab.n_tilde_splitting(kb)
        matches = qplab.trivial_factor_matches_tangent(kb, frame)
        return val.components, form, split.degrees, matches

    def check(self, index, out):
        comps, form, degrees, matches = out
        g = self.g
        lam = self.pencil.lambdas
        for m in range(3):
            total = 0
            for l, c in zip(lam, comps):
                total = c * l ** m + total
            _require(not total, f"moment identity m={m} fails")
        _require(form.degree == 2 * g - 2, f"f_H has degree {form.degree}")
        _require(not form.is_zero(), "f_H is zero")
        _require(tuple(degrees) == (0,) * (2 * g - 1) + (1,),
                 f"splitting degrees {degrees}")
        _require(matches is True, "trivial factor does not match the tangent space")
        _require(normalized_fh_digest(form) == self.digests[index],
                 f"f_H digest differs for pool sample {index}")


def _rank(rows) -> int:
    """Rank of a Fraction matrix by plain Gaussian elimination."""
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


class RationalInvariants:
    """Rational-only linear algebra: Pfaffians, rank-2 skew maps, Vandermonde.

    Job k has kind k % 3: a random integer skew matrix of size 4..12 (Pf^2 =
    det), a rank-2 skew map u v^T - v u^T (characteristic coefficients and
    the orthogonal kernel/image decomposition), or a random pencil of
    distinct rationals at g = 2..4 (Vandermonde normaliser).  The size n
    cycles with k // 3 (g = n // 4 + 1), so every run holds the same mix of
    15 equal classes and the seed draws only the entries.  The 12x12
    determinants, one job in 15, take about half the time of a run, so a
    random count of them spread the throughput of runs with different
    seeds; with classes of unequal share the median fell on a class boundary
    and jumped between runs.
    """

    name = "rational_invariants"
    KINDS = ("pfaffian", "rank2", "vandermonde")
    SIZES = (4, 6, 8, 10, 12)

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, k: int):
        rng = random.Random(self.seed * 1_000_003 + k)
        kind = self.KINDS[k % 3]
        n = self.SIZES[k // 3 % len(self.SIZES)]
        if kind == "pfaffian":
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    c = Fraction(rng.randint(-9, 9))
                    m[i][j], m[j][i] = c, -c
            return kind, m
        if kind == "rank2":
            while True:
                u = [rng.randint(-5, 5) for _ in range(n)]
                v = [rng.randint(-5, 5) for _ in range(n)]
                m = [[Fraction(u[a] * v[b] - v[a] * u[b]) for b in range(n)]
                     for a in range(n)]
                if any(any(row) for row in m):
                    return kind, m
        g = n // 4 + 1
        lams = set()
        while len(lams) < 2 * g + 2:
            lams.add(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
        return kind, sorted(lams)

    def run(self, inp):
        kind, data = inp
        if kind == "pfaffian":
            return qplab.pfaffian(qplab.SkewMap(data)), qplab.det_exact(data)
        if kind == "rank2":
            skew = qplab.SkewMap(data)
            return qplab.char_coeffs(skew), qplab.rank2_orthogonal_decomposition(skew)
        return qplab.vandermonde_normalizer(qplab.PencilOfQuadrics(data))

    def check(self, inp, out):
        kind, data = inp
        if kind == "pfaffian":
            pf, det = out
            _require(pf * pf == det, "Pf^2 != det")
        elif kind == "rank2":
            coeffs, (ker, im) = out
            n = len(data)
            a1 = sum(data[i][j] ** 2 for i in range(n) for j in range(i + 1, n))
            _require(coeffs[0] == a1, "a_1 differs from the sum of squares")
            _require(not any(coeffs[1:]), "rank-2 map has a_k != 0 for k >= 2")
            _require(len(ker) == n - 2 and len(im) == 2, "wrong kernel/image sizes")
            for k in ker:
                _require(not any(sum(r * x for r, x in zip(row, k)) for row in data),
                         "kernel vector not annihilated")
                for w in im:
                    _require(not sum(x * y for x, y in zip(k, w)),
                             "kernel and image not orthogonal")
            _require(_rank(ker + im) == n, "kernel and image do not span")
        else:
            lams = data
            for j, a in enumerate(out):
                target = Fraction(1)
                for k, l in enumerate(lams):
                    if k != j:
                        target /= lams[j] - l
                _require(a == target, f"normaliser entry {j} off its closed form")


WORKLOADS = {w.name: w for w in (VerifyAllG2, FibrationG4, RationalInvariants)}
