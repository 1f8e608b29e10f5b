"""How fast the host runs right now, from a fixed reference kernel.

The benchmark host has 2 cores shared with other tenants. Its speed drifts
by up to 1.8x over minutes, and CPU time drifts with wall time, so the cause
is contention for the shared cores, not waiting. Each operation runs this
kernel right after its timed call, in the same process, and ``run.py``
divides the operation's times by ``calibrate() / NOMINAL_S``.

The kernel imitates the mix of work in a flow step: sparse products and
mat-vecs, an edge-style ``np.unique``, vector arithmetic and plain
interpreter work. It uses only numpy and scipy, never helflow, so no change
to helflow can move it.
"""

import statistics
import time

import numpy as np
from scipy import sparse

NOMINAL_S = 0.06     # kernel time on a quiet 2-core Xeon host
REPEATS = 3


def _inputs():
    rng = np.random.default_rng(12345)
    n = 2562
    rows = np.repeat(np.arange(n), 7)
    cols = (rows + rng.integers(-40, 41, size=rows.size)) % n
    a = sparse.csr_matrix((rng.random(rows.size), (rows, cols)), shape=(n, n))
    a = (a + a.T + 20.0 * sparse.identity(n)).tocsr()
    inv_mass = sparse.diags(1.0 / (1.0 + rng.random(n)))
    x = rng.random((n, 3))
    pairs = rng.integers(0, n, size=(15360, 2))
    return a, inv_mass, x, pairs


def _kernel(a, inv_mass, x, pairs):
    acc = 0.0
    for _ in range(2):
        b = ((a @ inv_mass) @ a).tocsr()
        y = x
        for _ in range(10):
            y = b @ y
            y /= np.abs(y).max()
        acc += np.unique(np.sort(pairs, axis=1), axis=0).shape[0]
        acc += float(np.einsum("ij,ij->i", y, y).sum())
        acc += sum(i * 0.5 for i in range(5000))
    return acc


def calibrate(repeats=REPEATS):
    """Median seconds of the reference kernel over ``repeats`` runs."""
    inputs = _inputs()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _kernel(*inputs)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


if __name__ == "__main__":
    print(f"{calibrate():.4f} s (nominal {NOMINAL_S} s)")
