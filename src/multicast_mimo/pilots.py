"""Pilot sequences, pilot power control and asynchronous pilot correlations.

The engine's pilot schemes use two pilot assignments:

* ``per-user``: the same K orthogonal sequences are reused in every cell, so a
  matched-filter estimate of one user's channel also picks up the same-index
  user of every other cell (pilot contamination).
* ``per-cell``: all K users of a cell share one sequence and different cells
  get orthogonal sequences, so each BS estimates the composite channel of its
  own users only; cross-cell leakage is exactly zero in the synchronous case.

Pilot rows come from the unitary DFT matrix: exactly orthonormal at any
length and constant modulus.

The module also models asynchronous pilot arrival: a propagation-delay offset
smears each received pilot symbol into a weighted sum of two consecutive
transmitted symbols, which breaks orthogonality and reintroduces both a
scaling loss and cross-cell contamination (``async_kappas``).  The pilot
books, arrival-delay profiles and per-user reception and estimation that the
engine's pilot schemes stand for are the reference route in
``tests/reference_route.py``.
"""

import numpy as np


def make_orthogonal_pilots(count: int, length: int) -> np.ndarray:
    """First ``count`` rows of the unitary DFT matrix of size ``length``.

    Rows are unit norm and mutually orthogonal for any count <= length.
    """
    if count > length:
        raise ValueError(f"cannot fit {count} orthogonal sequences in length {length}")
    if count < 1:
        raise ValueError("count must be >= 1")
    r = np.arange(count)[:, None]
    m = np.arange(length)[None, :]
    return np.exp(-2j * np.pi * r * m / length) / np.sqrt(length)


def optimal_pilot_powers(betas, peak_power: float) -> np.ndarray:
    """Max-min-optimal pilot powers: p_k = (beta_min / beta_k)^2 * peak.

    The weakest user transmits at exactly the peak power and every product
    beta_k^2 * p_k comes out equal, which equalizes the per-user SINRs of the
    composite scheme.  The last axis is the user; leading axes (cells,
    realizations) are batch axes, each with its own weakest user.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas <= 0) or peak_power <= 0:
        raise ValueError("gains and peak_power must be positive")
    b_min = betas.min(axis=-1, keepdims=True)
    return (b_min / betas) ** 2 * peak_power


def async_kappas(offsets_s, symbol_s: float, length: int) -> np.ndarray:
    """(N, N, K) correlations of each delay-polluted per-cell pilot with each
    receiver's own pilot, ``kappa[j, l, k]`` at BS j.

    Cell l's users send row l of ``make_orthogonal_pilots(N, length)``, and
    the pilot of user k in cell l arrives ``offsets_s[l, k]``, within one
    symbol ``T = symbol_s``, late at every BS.  ``kappa[j, l, k]`` is the
    inner product of that user's polluted sequence with the conjugated
    sequence of cell j.  Element m of the polluted sequence is ``rho(offset)
    seq[m] + rho(T - offset) seq[m - 1]`` for the rectangular pulse's
    correlation ``rho(x) = 1 - x / T``, with ``seq[-1] = 0`` (the reference
    route's ``polluted_pilot`` at shift 0).  In-cell values below one mean
    scaling loss; nonzero out-of-cell values mean the cross-cell
    contamination that synchronous orthogonality would have removed.
    |kappa| <= 1 always.  Every BS sees the same offsets, so the polluted
    sequences are built once.  An offset outside [0, T) raises
    ``ValueError``.
    """
    offsets = np.asarray(offsets_s, dtype=float)
    if not symbol_s > 0:
        raise ValueError("symbol_s must be positive")
    if not np.all((offsets >= 0) & (offsets < symbol_s)):
        raise ValueError("delay offsets must lie in [0, symbol_s)")
    sequences = make_orthogonal_pilots(offsets.shape[0], length)
    delayed = np.zeros_like(sequences)  # each sequence one symbol late
    delayed[:, 1:] = sequences[:, :-1]
    # the correlations of the unit-energy rectangular pulse at lags offset and
    # T - offset, in the reference route's arithmetic
    rho_a = ((symbol_s - offsets) / symbol_s)[..., None]
    rho_b = ((symbol_s - (symbol_s - offsets)) / symbol_s)[..., None]
    polluted = rho_a * sequences[:, None] + rho_b * delayed[:, None]  # (N, K, L)
    # one product per BS: a single product over all BSs rounds differently
    return np.stack([polluted @ own.conj() for own in sequences])
