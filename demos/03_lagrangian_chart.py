"""Finite-difference verification that the fibration is Lagrangian.

In a local chart of T*X with canonical coordinates (z, p_z), the fibration's
Jacobian should have rank 2g-1 at a generic sample, and the canonical
symplectic form should vanish on the kernel (the fiber tangent space).
Both are checked with central differences -- no symbolic machinery.
"""

from qplab import canonical_pencil, sample_pair, verify_lagrangian

p = canonical_pencil(2)

for i in range(5):
    x, xi = sample_pair(p, seed=11, index=i)
    rep = verify_lagrangian(x, xi)
    print(
        f"sample {i}: rank={rep['jacobian_rank']} (expected {2 * p.g - 1}), "
        f"isotropy defect={rep['isotropy_defect']:.2e}, pass={rep['pass']}"
    )
