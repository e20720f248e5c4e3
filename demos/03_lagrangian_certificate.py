"""Exact certificate that the fibration is Lagrangian.

At each sample (x, eta) the Jacobian J = dF/deta of the generator fields is a
closed form.  It kills the gauge directions x and lambda*x, its rank on the
cotangent directions (zeta . x = 0) is 2g-1, and the brackets {F_i, F_j}
vanish, so the fibre through the sample is Lagrangian.  Every check is an
exact zero or an exact rank -- no step and no tolerance.  The last lines show
the control: F with lambda_{2g+1} moved by 1/7 fails the certificate.
"""

from fractions import Fraction

from qplab import PencilOfQuadrics, canonical_pencil, sample_pair, verify_lagrangian
from qplab.fibration import _phi_table


def show(label, rep, g):
    print(
        f"{label}: rank={rep['jacobian_rank']} (expected {2 * g - 1}), "
        f"gauge={rep['gauge']}, isotropic={rep['isotropic']}, pass={rep['pass']}"
    )


p = canonical_pencil(2)
for i in range(3):
    show(f"sample {i}", verify_lagrangian(*sample_pair(p, seed=11, index=i)), p.g)

# a pencil with a gap of 1e-12 between branch points certifies the same way
close = PencilOfQuadrics([0, Fraction(1, 10**12), Fraction(2, 10**12), 3, 4, 5])
show("gap 1e-12", verify_lagrangian(*sample_pair(close, seed=0)), close.g)

# control: the weights of F taken from a pencil with lambda_{2g+1} moved by 1/7
p3 = canonical_pencil(3)
moved = list(p3.lambdas)
moved[-1] += Fraction(1, 7)
p3.derived("phi_table", lambda _: _phi_table(PencilOfQuadrics(moved)))
show("moved weight", verify_lagrangian(*sample_pair(p3, seed=0)), p3.g)
