"""Pilot sequences, pilot books, pilot power control and asynchronous pilot
correlations.

Two pilot assignments are supported:

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
scaling loss and cross-cell contamination (``async_kappas``).  The per-user
reception and estimation that the engine's pilot schemes stand for are the
reference route in ``tests/reference_route.py``.
"""

from dataclasses import dataclass

import numpy as np

ASSIGNMENTS = ("per-user", "per-cell")

_GRAM_TOL = 1e-12


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


@dataclass(frozen=True)
class PilotBook:
    """Orthonormal pilot sequences plus per-user transmit powers.

    ``sequences`` is (R, L) with orthonormal rows.  In ``per-user`` mode row k
    is shared by user k of every cell (R = K); in ``per-cell`` mode row i is
    shared by all users of cell i (R = N).  ``powers[i, k]`` is the pilot
    power of user k in cell i, bounded by ``peak_power``.
    """

    sequences: np.ndarray
    assignment: str
    powers: np.ndarray
    peak_power: float

    def __post_init__(self):
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"unknown pilot assignment {self.assignment!r}")
        gram = self.sequences @ self.sequences.conj().T
        if np.max(np.abs(gram - np.eye(self.sequences.shape[0]))) > _GRAM_TOL:
            raise ValueError("pilot rows are not orthonormal")
        if self.peak_power <= 0:
            raise ValueError("peak_power must be positive")
        if np.any(self.powers <= 0) or np.any(
            self.powers > self.peak_power * (1 + 1e-12)
        ):
            raise ValueError("pilot powers must lie in (0, peak_power]")
        n_cells, n_users = self.powers.shape
        required = n_users if self.assignment == "per-user" else n_cells
        if self.sequences.shape[0] < required:
            raise ValueError(
                f"{self.assignment} assignment needs {required} sequences, "
                f"got {self.sequences.shape[0]}"
            )

    @property
    def length(self) -> int:
        return self.sequences.shape[1]


def make_pilot_book(
    assignment: str,
    num_cells: int,
    users_per_cell: int,
    length: int,
    peak_power: float,
    powers=None,
) -> PilotBook:
    """Convenience constructor; ``powers=None`` puts every user at peak power."""
    count = users_per_cell if assignment == "per-user" else num_cells
    if powers is None:
        powers = np.full((num_cells, users_per_cell), float(peak_power))
    return PilotBook(
        sequences=make_orthogonal_pilots(count, length),
        assignment=assignment,
        powers=np.asarray(powers, dtype=float),
        peak_power=float(peak_power),
    )


@dataclass(frozen=True)
class AsyncProfile:
    """Propagation delays of the pilot arrivals, relative to each receiver.

    ``delays_s[i, l, k]`` is the arrival delay at BS i of the pilot from user
    k in cell l; ``reference_delays_s[i]`` is the matched-filter timing at
    BS i.  The sub-symbol offset and whole-symbol shift of each arrival are
    ``divmod(delay - reference, symbol_duration)``.
    """

    delays_s: np.ndarray  # (N, N, K)
    reference_delays_s: np.ndarray  # (N,)
    symbol_duration_s: float

    def __post_init__(self):
        if self.symbol_duration_s <= 0:
            raise ValueError("symbol_duration_s must be positive")

    @classmethod
    def from_user_offsets(cls, offsets_s, symbol_duration_s: float) -> "AsyncProfile":
        """Profile where user (l, k) arrives ``offsets_s[l, k]`` late at every BS."""
        offsets = np.asarray(offsets_s, dtype=float)
        n = offsets.shape[0]
        return cls(
            delays_s=np.broadcast_to(offsets, (n,) + offsets.shape).copy(),
            reference_delays_s=np.zeros(n),
            symbol_duration_s=float(symbol_duration_s),
        )


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


def async_kappas(book: PilotBook, profile: AsyncProfile, cell: int) -> np.ndarray:
    """Correlations of each delay-polluted pilot with the receiver's own pilot.

    Returns ``kappa[l, k]`` for receiving BS ``cell``: the inner product of
    the polluted sequence of user (l, k) with the conjugated sequence of cell
    ``cell``.  With ``shift, offset = divmod(delay - reference, T)``, element
    m of the polluted sequence is ``rho(offset) seq[m + shift] + rho(T -
    offset) seq[m + shift - 1]`` for the rectangular pulse's correlation
    ``rho(x) = 1 - x / T``, reading zero outside the block (the reference
    route's ``polluted_pilot``).  In-cell values below one mean
    scaling loss; nonzero out-of-cell values mean the cross-cell
    contamination that synchronous orthogonality would have removed.
    |kappa| <= 1 always.  All users are evaluated at once: each polluted
    sequence is read from its cell's sequence padded with ``length`` zeros on
    both sides, so a shift by ``length`` or more symbols reads only silence.
    """
    if book.assignment != "per-cell":
        raise ValueError("asynchrony analysis requires a per-cell pilot book")
    n = profile.delays_s.shape[1]
    length = book.length
    symbol = profile.symbol_duration_s
    shift, offset = np.divmod(
        profile.delays_s[cell] - profile.reference_delays_s[cell], symbol
    )  # (N, K) each
    # the correlations of the unit-energy rectangular pulse at lags offset and
    # T - offset, in the reference route's arithmetic
    rho_a = (symbol - offset) / symbol
    rho_b = (symbol - (symbol - offset)) / symbol
    padded = np.zeros((n, 3 * length), dtype=complex)
    padded[:, length : 2 * length] = book.sequences[:n]
    rows = np.arange(n)[:, None, None]
    window = length + np.arange(length)

    def read(lag):
        start = np.clip(lag, -length, length).astype(int)[..., None]
        return padded[rows, start + window]  # (N, K, L)

    polluted = rho_a[..., None] * read(shift) + rho_b[..., None] * read(shift - 1)
    return polluted @ book.sequences[cell].conj()
