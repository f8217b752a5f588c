"""The explicit vector route that the engine's fast paths are tested against:
``ChannelState`` -> ``uplink_rx`` -> ``estimate_individual`` /
``estimate_composite`` -> ``beamformer_from_estimate`` (or
``optimal_beamformer_perfect`` with perfect CSI) -> ``downlink_sinr``.

The package does not call it, nor its pilot books (``PilotBook``) and
arrival-delay profiles (``AsyncProfile``): the engine reads every scheme's
beam off its large-scale coefficients (``engine._beam_directions``) and
samples the beam amplitudes directly.  The tests tie
``engine.sinr_from_amplitudes`` to this route exactly on the amplitudes of
the same vectors, the projection to explicit draws exactly, and the law of
the sampler's raw draws to explicit draws by KS tests.
"""

from dataclasses import dataclass

import numpy as np

from multicast_mimo.channel import complex_gaussian, large_scale_gains, shadowing_db
from multicast_mimo.config import NetworkConfig
from multicast_mimo.pilots import make_orthogonal_pilots

ASSIGNMENTS = ("per-user", "per-cell")
_GRAM_TOL = 1e-12


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


@dataclass(frozen=True)
class ChannelState:
    """One realization of all BS-to-user channels.

    ``beta[i, j, k]`` is the large-scale gain and ``h[i, j, k]`` the
    small-scale vector from BS i to user k of cell j.
    """

    beta: np.ndarray  # (N, N, K)
    h: np.ndarray  # (N, N, K, M) complex

    @property
    def num_cells(self) -> int:
        return self.beta.shape[0]

    @property
    def users_per_cell(self) -> int:
        return self.beta.shape[2]

    @property
    def antennas(self) -> int:
        return self.h.shape[3]

    def vector(self, i: int, j: int, k: int) -> np.ndarray:
        """Channel vector g from BS i to user k of cell j."""
        return np.sqrt(self.beta[i, j, k]) * self.h[i, j, k]


def large_scale_tensor(
    centers: np.ndarray, positions: np.ndarray, config: NetworkConfig, shadowing_rng
) -> np.ndarray:
    """Gains beta[i, j, k] for every (BS i, user k of cell j) pair of one
    realization: ``large_scale_gains`` on the (N, 2) base-station
    ``centers`` and the (N, K, 2) positions of one realization of
    ``drop_users`` on them, with ``config``'s path-loss and penetration
    keys, on the one-row stack ``shadowing_db(config.shadow_sigma_db, n,
    [shadowing_rng])`` of the generator ``shadowing_rng``."""
    n = len(centers)
    if positions.shape[:-2] != (n,):
        raise ValueError(f"positions of shape {positions.shape} are not one drop of {n} cells")
    shadow_db = shadowing_db(config.shadow_sigma_db, n, [shadowing_rng])[0]
    return large_scale_gains(
        centers,
        positions,
        shadow_db,
        config.pathloss_intercept_db,
        config.pathloss_slope,
        config.penetration_loss_db,
    )


def row_for(book: PilotBook, cell: int, user: int) -> np.ndarray:
    """The pilot row that user ``user`` of cell ``cell`` sends."""
    if book.assignment == "per-user":
        return book.sequences[user]
    return book.sequences[cell]


def offset_and_shift(profile: AsyncProfile, i: int, l: int, k: int) -> tuple[float, int]:
    """Sub-symbol offset and whole-symbol shift of user (l, k)'s arrival at BS i."""
    shift, offset = divmod(
        profile.delays_s[i, l, k] - profile.reference_delays_s[i],
        profile.symbol_duration_s,
    )
    return float(offset), int(shift)


def pulse_correlation(offset_s: float, symbol_duration_s: float) -> float:
    """Autocorrelation of the unit-energy rectangular pulse at lag ``offset_s``.

    Closed form (1 - offset/T) on [0, T]; the overlap of two unit-energy
    rectangles of duration T shifted by the offset.
    """
    if offset_s < 0 or offset_s > symbol_duration_s:
        raise ValueError("offset must lie in [0, symbol_duration]")
    return (symbol_duration_s - offset_s) / symbol_duration_s


def polluted_pilot(sequence, offset_s: float, shift: int, symbol_duration_s: float):
    """Pilot sequence as seen after a mistimed matched filter.

    Element m becomes rho(offset)*seq[m + shift] + rho(T - offset)*seq[m +
    shift - 1]; indices outside the pilot block read as zero (silence before
    and after the block).
    """
    seq = np.asarray(sequence)
    length = seq.shape[0]
    rho_a = pulse_correlation(offset_s, symbol_duration_s)
    rho_b = pulse_correlation(symbol_duration_s - offset_s, symbol_duration_s)
    out = np.zeros(length, dtype=complex)
    idx = np.arange(length)
    a = idx + shift
    b = a - 1
    ok_a = (a >= 0) & (a < length)
    ok_b = (b >= 0) & (b < length)
    out[ok_a] += rho_a * seq[a[ok_a]]
    out[ok_b] += rho_b * seq[b[ok_b]]
    return out


def uplink_rx(
    channels: ChannelState,
    book: PilotBook,
    cell: int,
    noise_sigma_p2: float,
    rng_seed,
    async_profile: AsyncProfile | None = None,
) -> np.ndarray:
    """Received pilot block at the given BS, shape (M, L).

    Every user of every cell transmits its assigned sequence scaled by
    sqrt(power * L); the BS antenna array superimposes them through the
    channel vectors and adds white noise of per-entry variance
    ``noise_sigma_p2``.  With an ``async_profile`` the sequences are replaced
    by their delay-polluted versions as seen by this BS.
    """
    n, k_users = channels.num_cells, channels.users_per_cell
    m = channels.antennas
    rows = np.empty((n, k_users, book.length), dtype=complex)
    for l in range(n):
        for k in range(k_users):
            row = row_for(book, l, k)
            if async_profile is not None:
                offset, shift = offset_and_shift(async_profile, cell, l, k)
                row = polluted_pilot(row, offset, shift, async_profile.symbol_duration_s)
            rows[l, k] = row
    scale = np.sqrt(book.powers * book.length)  # (N, K)
    g = np.sqrt(channels.beta[cell])[..., None] * channels.h[cell]  # (N, K, M)
    y = np.einsum("lkm,lkt->mt", g, scale[..., None] * rows)
    if noise_sigma_p2 > 0:
        rngs = [np.random.default_rng(rng_seed)]
        y = y + complex_gaussian(rngs, (m, book.length), noise_sigma_p2)[0]
    return y


def estimate_individual(y: np.ndarray, book: PilotBook, user: int) -> np.ndarray:
    """Matched-filter estimate of one user's channel from a per-user pilot block.

    Correlating with the user's sequence recovers sqrt(p*L) times the sum of
    that pilot index's channels from every cell, plus noise: the estimate is
    contaminated by the same-index users of all other cells.
    """
    if book.assignment != "per-user":
        raise ValueError("individual estimation requires a per-user pilot book")
    if not 0 <= user < book.sequences.shape[0]:
        raise ValueError(f"unknown user index {user}")
    return y @ book.sequences[user].conj()


def estimate_composite(y: np.ndarray, book: PilotBook, cell: int) -> np.ndarray:
    """Composite-channel estimate for one cell from a per-cell pilot block.

    Correlating with the cell's own sequence returns the power-weighted sum of
    that cell's user channels plus noise, with no other-cell component.
    """
    if book.assignment != "per-cell":
        raise ValueError("composite estimation requires a per-cell pilot book")
    return y @ book.sequences[cell].conj()


def _normalize(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm == 0 or not np.isfinite(norm):
        raise ArithmeticError("cannot normalize a zero or non-finite beamformer")
    return vec / norm


def optimal_beamformer_perfect(channels, betas) -> np.ndarray:
    """Asymptotically optimal beam from perfect CSI: sum of g_k / beta_k.

    ``channels`` is (K, M) with row k the channel vector of served user k.
    The vector is normalized exactly at finite M; the closed-form asymptotic
    normalizer is an analysis device only.
    """
    g = np.asarray(channels)
    betas = np.asarray(betas, dtype=float)
    if g.shape[0] != betas.shape[0]:
        raise ValueError("channels and betas disagree on user count")
    if np.any(betas <= 0):
        raise ValueError("all gains must be positive")
    return _normalize((g / betas[:, None]).sum(axis=0))


def beamformer_from_estimate(estimate) -> np.ndarray:
    """Unit-norm copy of an estimated (composite or combined) channel vector."""
    return _normalize(np.asarray(estimate))


def downlink_sinr(
    channels: ChannelState, beamformers, powers, sigma2: float, cell: int, user: int
) -> float:
    """Downlink SINR of one user: serving beam power over the sum of
    other-cell beam powers plus noise.

    ``beamformers`` holds one unit-norm beam per cell, ``powers`` the per-cell
    transmit powers in Watts.  This is the direct per-user evaluation that
    ``engine.sinr_from_amplitudes`` must reproduce on the amplitudes of the
    same vectors.
    """
    n = channels.num_cells
    if len(beamformers) != n or len(powers) != n:
        raise ValueError("need one beamformer and one power per cell")
    received = np.empty(n)
    for j, w in enumerate(beamformers):
        if w.shape[0] != channels.antennas:
            raise ValueError("beamformer length does not match antenna count")
        received[j] = powers[j] * np.abs(channels.vector(j, cell, user).conj() @ w) ** 2
    interference = received.sum() - received[cell]
    return float(received[cell] / (interference + sigma2))
