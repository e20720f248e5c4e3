"""Skew-symmetric invariant theory: char coefficients, Pfaffian, rank two.

The characteristic polynomial of a 2n x 2n skew map has only even-power
coefficients, and its constant term is the square of the Pfaffian.  Rank-two
maps have every invariant beyond the first equal to zero, and when they are
not nilpotent the space splits orthogonally as kernel + image.
"""

from fractions import Fraction

from qplab import (
    SkewMap,
    char_coeffs,
    det_exact,
    pfaffian,
    rank_exact,
    rank2_orthogonal_decomposition,
)

m = SkewMap.from_upper(6, [Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6)])
coeffs = char_coeffs(m)
pf = pfaffian(m)
print("char coefficients (a_1, a_2, a_3):", coeffs)
print("Pfaffian:", pf)
print("Pf^2 == det:", pf * pf == det_exact(m.entries))
print("invariant vector for g=3:", coeffs[:2] + (pf,))
print("rank:", rank_exact(m.entries), " nilpotent:", not any(coeffs) and not pf)

# a rank-two map u v^T - v u^T
u = [Fraction(v) for v in (1, 2, 0, 1, -1, 3)]
v = [Fraction(v) for v in (0, 1, 1, -2, 2, 1)]
r2 = SkewMap([[u[i] * v[j] - v[i] * u[j] for j in range(6)] for i in range(6)])
coeffs2 = char_coeffs(r2)
print("\nrank-two map: rank", rank_exact(r2.entries), " a_1 =", coeffs2[0])
print("higher invariants vanish:", coeffs2[1:])
ker, im = rank2_orthogonal_decomposition(r2)
print("kernel dim:", len(ker), " image dim:", len(im))
orth = all(
    sum((a * b for a, b in zip(kv, iv)), start=Fraction(0)) == 0
    for kv in ker
    for iv in im
)
print("kernel orthogonal to image:", orth)
