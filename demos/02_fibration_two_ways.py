"""The fibration computed two independent ways, and their identification.

Way one (algebra): component j of phi is
    F_j = sum_{k != j} (x_j eta_k - x_k eta_j)^2 / (lambda_k - lambda_j),
an exact quadratic expression in the covector.

Way two (geometry): restrict the pencil to the hyperplane H = ker(eta) of the
tangent space and record the binary form f_H of degree 2g-2 whose roots are
the parameters of degenerate restricted members.

The two match in closed form: the polynomial
    L(F)(t) = sum_j F_j prod_{k != j}(t - lambda_k)
has its top three coefficients equal to zero, and the other 2g-1 are
proportional to the coefficients of f_H, exactly.
"""

from qplab import (
    canonical_pencil,
    f_H,
    fit_identification,
    phi_X,
    sample_pair,
    verify_identification,
)

p = canonical_pencil(2)
ident = fit_identification(p)
print("identification matrix L (row r: coefficient of t^(2g+1-r)):")
for row in ident.L:
    print("  ", [str(c) for c in row])

x, xi = sample_pair(p, seed=7)
val = phi_X(x, xi)
print("\nphi components (exact):")
for c in val.components:
    print("  ", c)

lf = ident.apply(val)
form = f_H(x, xi)
print("\ntop three coefficients of L(F):", lf[:3])
print("remaining coefficients of L(F) next to those of f_H, and their ratio:")
for a, b in zip(lf[3:], form.coeffs):
    print("  ", a, " | ", b, " | ", a / b if b else "-")

pairs = [sample_pair(p, 7, index=i) for i in range(25)]
print("\nexact check on 25 samples:", verify_identification(ident, pairs))

# on the hyperplane section Y (last coordinate zero) the last phi component
# and the value f_H(lambda_last) vanish identically, not just numerically.
y, eta = sample_pair(p, 7, index=100, on_Y=True)
print("\neven case:")
print("  last phi component:", phi_X(y, eta).components[-1])
print("  f_H at last branch point:", f_H(y, eta).eval_affine(p.lambdas[-1]))
