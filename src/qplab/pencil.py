"""The defining pencil of diagonal quadrics and its sign group.

Chart convention: the member at the affine parameter t is q_t = t*q1 - q2,
so its Gram matrix is diag(t - lambda_k) and the degenerate members sit
exactly at t = lambda_j, matching the branch points [lambda_j : -1] of the
associated hyperelliptic curve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import dot
from .scalars import rational_to_string

__all__ = [
    "PencilOfQuadrics",
    "HyperellipticData",
    "SignGroupElement",
    "PencilError",
    "canonical_pencil",
]


class PencilError(ValueError):
    """Invalid pencil data: wrong length or repeated lambda (singular X)."""


@dataclass(frozen=True)
class HyperellipticData:
    """Branch data of the genus-g double cover of P^1."""

    genus: int
    branch_params: tuple  # the points [lambda_j : -1], stored as pairs


class PencilOfQuadrics:
    """q1 = sum x_j^2 and q2 = sum lambda_j x_j^2 with distinct rational lambda_j."""

    __slots__ = ("g", "lambdas", "_derived")

    def __init__(self, lambdas):
        # a list, not a generator expression: tuple() over a generator made
        # the peak RSS of long runs creep up (measured on CPython 3.11)
        lambdas = tuple([x if type(x) is Fraction else Fraction(x) for x in lambdas])
        if len(lambdas) < 6 or len(lambdas) % 2 != 0:
            raise PencilError("need an even number (>= 6) of coefficients")
        # m_k = L * lambda_k with L > 0, so the ints m_k are distinct iff
        # the lambdas are, and they hash for less
        form = _integer_form(lambdas)
        if len(set(form[1])) != len(lambdas):
            raise PencilError("repeated lambda: the intersection X is singular")
        self.lambdas = lambdas
        self.g = len(lambdas) // 2 - 1
        self._derived = {"integer_form": form}

    def derived(self, key, build):
        """build(self), computed on the first call with this key and kept on
        the pencil for later calls; for tables that depend only on the pencil."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build(self)
        return value

    def integer_form(self) -> tuple:
        """(L, ms): L the lcm of the lambdas' denominators and the integers
        m_k = L * lambda_k, so L * q2 = sum m_k x_k^2.  Built with the pencil,
        which tests the lambdas distinct on it."""
        return self._derived["integer_form"]

    @property
    def dim_ambient(self) -> int:
        return 2 * self.g + 2

    def hyperelliptic_data(self) -> HyperellipticData:
        return HyperellipticData(
            genus=self.g,
            branch_params=tuple([(lam, Fraction(-1)) for lam in self.lambdas]),
        )

    def q1(self, x):
        return dot(x, x)

    def q2(self, x):
        return dot([c * c for c in x], self.lambdas)

    def q1_row(self, v):
        """The covector q1(v, .) of the symmetric bilinear form of q1."""
        return list(v)

    def q2_row(self, v):
        """The covector q2(v, .); each coordinate comes first in its
        product, so a ``Biquad`` one runs ``Biquad.__mul__`` directly."""
        return [c * lam for lam, c in zip(self.lambdas, v)]

    def fingerprint(self) -> str:
        payload = ",".join(rational_to_string(lam) for lam in self.lambdas)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def sign_group_elements(self):
        """All of Upsilon = (Z_2)^(2g+2) / {+-1}, canonical representatives."""
        n = self.dim_ambient
        seen = set()
        out = []
        for mask in range(2 ** n):
            bits = [(mask >> k) & 1 for k in range(n)]
            e = SignGroupElement(bits)
            if e.bits not in seen:
                seen.add(e.bits)
                out.append(e)
        return out

    def __eq__(self, other):
        return isinstance(other, PencilOfQuadrics) and self.lambdas == other.lambdas

    def __hash__(self):
        return hash(self.lambdas)

    def __repr__(self):
        return f"PencilOfQuadrics(g={self.g}, lambdas={list(self.lambdas)})"


def _integer_form(lam) -> tuple:
    L = lcm(*[x.denominator for x in lam])
    return L, tuple([x.numerator * (L // x.denominator) for x in lam])


def canonical_pencil(g: int) -> PencilOfQuadrics:
    """The pencil with lambda = (0, 1, ..., 2g+1)."""
    return PencilOfQuadrics(range(2 * g + 2))


class SignGroupElement:
    """Coordinate sign flips modulo global negation.

    The canonical representative is the bit vector whose first set bit comes
    first among {bits, complement}; concretely the one with bit 0 set, and the
    all-ones vector for the identity.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        # lists, not generator expressions: tuple() over a generator made the
        # peak RSS of long runs creep up (measured on CPython 3.11)
        bits = tuple([int(b) & 1 for b in bits])
        comp = tuple([1 - b for b in bits])
        self.bits = bits if _first_set(bits) <= _first_set(comp) else comp

    @property
    def parity(self) -> int:
        """Evenness of the partition; well defined because len(bits) is even."""
        return sum(self.bits) % 2

    def act(self, x):
        """Flip signs of the coordinates at set bits."""
        if len(x) != len(self.bits):
            raise ValueError(
                f"coordinate length {len(x)} != group arity {len(self.bits)}"
            )
        return [-c if b else c for c, b in zip(x, self.bits)]

    def __eq__(self, other):
        return isinstance(other, SignGroupElement) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"SignGroupElement({''.join(map(str, self.bits))})"


def _first_set(bits):
    for k, b in enumerate(bits):
        if b:
            return k
    return len(bits)
