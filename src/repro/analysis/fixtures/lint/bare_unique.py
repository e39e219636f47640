"""Adversarial fixture: ``lint/bare-unique``.

Value-only ``np.unique`` on int64 edge keys inside a hot package (this
file sits under ``analysis/``): NumPy's hash path, tens of times slower
than :func:`repro.sortops.sorted_unique`.  Never imported; analyzed
statically by the CI negative-control loop.
"""

import numpy as np


def dedupe_edges(src, dst, n):
    key = np.unique(src.astype(np.int64) * n + dst)
    return key // n, key % n
