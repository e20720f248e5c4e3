"""Pencils of diagonal quadrics, exact point sampling, and the quotient variety.

The defining data is 2g+2 pairwise-distinct rationals lambda_j.  The pencil
member at the affine parameter t has Gram matrix diag(t - lambda_j), so it
degenerates exactly at t = lambda_j, and those 2g+2 parameters are the branch
points of a genus-g hyperelliptic curve.

Points of X = {q1 = q2 = 0} are sampled exactly: the tail coordinates are
small random integers and the two head coordinates are square roots adjoined
as a biquadratic extension Q(sqrt(u0), sqrt(u1)).
"""

from fractions import Fraction

from qplab import canonical_pencil, quotient_even, sample_point

p = canonical_pencil(2)
print("pencil:", p)
print("degenerate parameters:", list(p.lambdas))
print("hyperelliptic genus:", p.hyperelliptic_data().genus)
print("sign group order (mod global sign):", len(p.sign_group_elements()))

x = sample_point(p, seed=42)
print("\nsampled point coordinates:", x.coords)
print("radicands (u0, u1):", x.context().u, x.context().w)
print("q1(x) =", p.q1(x.coords), " q2(x) =", p.q2(x.coords))

# squaring the coordinates (plus their product) lands on the variety Z cut out
# by two linear equations and one weighted quadric -- exactly.
ys = quotient_even(x)
lin1 = sum(ys[:-1], start=Fraction(0))
lin2 = sum((lam * y for lam, y in zip(p.lambdas, ys[:-1])), start=Fraction(0))
prod = ys[0]
for y in ys[1:-1]:
    prod = prod * y
print("\nquotient equations:")
print("  sum y_j           =", lin1)
print("  sum lambda_j y_j  =", lin2)
print("  y_prod^2 - prod y =", ys[-1] * ys[-1] - prod)
