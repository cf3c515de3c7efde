"""Fixed reference work that the benchmark times next to every CLI call.

Usage: python3 perfbench/reference.py

It starts an interpreter, imports numpy and runs a fixed pure-Python
loop of complex and rational arithmetic over a small dict, the same kinds
of work an `mzero` call does. It imports nothing from the package, so its
time depends only on the machine and the interpreter: dividing a call's
wall time by the reference time measured around it cancels the slow and
fast stretches of a shared host.
"""

from fractions import Fraction

import numpy as np

terms = {(i % 5, i % 3, i % 7): complex(i, -i) / 7 for i in range(64)}
point = (0.5 + 0.25j, -0.75j, 0.125 + 0j)
acc = 0j
for _ in range(300):
    for (a, b, c), coeff in terms.items():
        acc += coeff * point[0] ** a * point[1] ** b * point[2] ** c
q = sum(Fraction(k, k + 1) for k in range(1, 400))
np.linalg.svd(np.eye(4) + np.full((4, 4), abs(acc) * 1e-9))
print(float(q) > 0)
