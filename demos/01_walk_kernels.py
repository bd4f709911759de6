#!/usr/bin/env python3
"""Walk kernels: validation, characteristic function, spectrum, Weyl waves.

The unperturbed operator is convolution by a symmetric finite-range
probability p.  Its spectrum is the interval [min p-hat, 1], and restricted
plane waves witness every point of it: the residual of (p-hat(theta) - P)
on a truncated wave decays like n^(-1/2) in any dimension.
"""

import numpy as np

import sparsewalk as sw

print("== validating kernels ==")
simple = sw.simple1d()
lazy = sw.lazy1d(0.25)
print(f"simple 1d walk: offsets {simple.offsets}, range {simple.reach}")
print(f"lazy q=0.25:    offsets {lazy.offsets}, p(0) = {lazy.p0}")

try:
    sw.validate_kernel({2: 0.5, -2: 0.5})
except sw.SparseWalkError as err:
    print(f"two-step-only kernel rejected: {type(err).__name__}: {err}")

print("\n== characteristic function and spectrum ==")
for theta in (0.0, np.pi / 2, np.pi):
    print(f"p-hat({theta:+.3f}) simple = {sw.char_function(simple, theta):+.6f}, "
          f"lazy = {sw.char_function(lazy, theta):+.6f}")
print(f"spectrum simple: [{simple.lower:+.6f}, 1]")
print(f"spectrum lazy:   [{lazy.lower:+.6f}, 1]  (= 2q-1)")

print("\n== exact return probabilities ==")
for n in range(0, 7):
    print(f"p_{n}(0) = {sw.convolution_power_at_zero(simple, n):.6f}", end="  ")
print("\n(odd steps vanish by parity)")

print("\n== Weyl sequences: plane waves certify essential spectrum ==")
for kernel, theta, label in ((simple, 0.0, "d=1"), (sw.simple2d(), (0.0, 0.0), "d=2")):
    ns = (25, 50, 100, 200)
    slope, residuals = sw.weyl_scaling_fit(kernel, theta, ns)
    pretty = ", ".join(f"{r:.4f}" for r in residuals)
    print(f"{label}: residuals at n={ns} -> {pretty}; log-log slope {slope:+.3f} (theory -1/2)")
