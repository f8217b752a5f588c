"""Deterministic random streams keyed by master seed, stream and realization.

Realization t of stream s draws from numpy's ``np.random.default_rng(
[master_seed, s, t])`` and from nothing else.  So any single realization can
be regenerated in isolation, without replaying the ones before it, and no
execution order or parallel split can reorder the streams.  ``make_rngs``
builds those generators for an array of realizations.
"""

import numpy as np

# Imported here, so that numpy's lazy ``numpy.random`` import is paid when
# the package is imported rather than by the first experiment.
from numpy.random import default_rng


def make_rngs(master_seed: int, stream: int, indices) -> list:
    """Generators ``[np.random.default_rng([master_seed, stream, t]) for t in
    indices]``.

    ``master_seed`` and ``stream`` are non-negative ints; ``indices`` is a
    1-D array of integers in [0, 2**32), one entropy word each.
    """
    t = np.asarray(indices)
    if t.dtype.kind not in "iu":
        raise TypeError("realization indices must be integers")
    if t.size and not (t.min() >= 0 and t.max() <= 0xFFFFFFFF):
        raise ValueError("realization indices must lie in [0, 2**32)")
    seed, stream = int(master_seed), int(stream)
    return [default_rng([seed, stream, int(i)]) for i in t.reshape(-1)]
