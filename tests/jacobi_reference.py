"""The per-element cyclic Jacobi loop: the plain statement of the algorithm.

``sympspec.densemat._jacobi_kernel`` rotates whole rows of a stack instead;
``test_densemat.py::test_jacobi_kernel_matches_loop_bitwise`` checks that
the two give the same bits.
"""

import numpy as np


def jacobi_kernel_loop(a, v, off_tol, max_sweeps):
    # Cyclic Jacobi with a skip threshold. Mutates `a` toward diagonal form
    # and accumulates rotations into `v`. Returns (converged, sweeps_used).
    # This is the reference kernel: densemat._jacobi_kernel must reproduce
    # its bits.
    n = a.shape[0]
    skip = off_tol / (2.0 * n)
    for sweep in range(max_sweeps):
        off2 = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off2 += 2.0 * a[i, j] * a[i, j]
        if np.sqrt(off2) <= off_tol:
            return True, sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                app = a[p, p]
                aqq = a[q, q]
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
                # the rotation annihilates (p, q); assign the closed forms
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                for k in range(n):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
    off2 = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            off2 += 2.0 * a[i, j] * a[i, j]
    return bool(np.sqrt(off2) <= off_tol), max_sweeps
