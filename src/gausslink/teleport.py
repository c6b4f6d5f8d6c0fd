"""Teleportation-induced conversion channel from a two-mode entangled source.

Teleporting an input mode over a standard-form resource (u, v, w) with gain
kappa realizes a single-mode Gaussian channel with T = kappa I and
N = (v kappa^2 + u - 2 w kappa) I: a thermal loss channel below unit gain, a
thermal amplifier above it, and a random displacement channel at kappa = 1
whose noise variance is exactly the Duan combination u + v - 2w.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capacity import (
    BosonicChannelKind,
    RANDOM_DISPLACEMENT,
    THERMAL_AMP,
    THERMAL_LOSS,
    _coherent_info_displacement,
    _loss_amp_info,
)
from .entanglement import _duan
from .gaussian import check_physical
from .transducer import TwoModeStandardForm, _all

__all__ = [
    "GainSearchResult",
    "induced_channel",
    "optimize_gain",
    "optimize_gains",
    "teleport_oracle",
]

# Gains within this window of 1 are classified as displacement channels; the
# loss/amplifier noise expression has a removable divergence at kappa = 1.
_UNIT_GAIN_TOL = 1e-9
# Round-off allowed below n_e = 0: where n_e is 0 in exact arithmetic, lanes
# this little below it are clamped to 0, not rejected as unphysical.
_NE_SLACK = 1e-9

GAIN_SEARCH_RANGE = (1e-3, 10.0)
_COARSE_POINTS = 400
# elements per coarse-scan chunk, which keeps each (lanes, gains) temporary at
# ~26 kB: about 27 lanes of 118 gains; chunks 4x as large raised the peak RSS
# of a row-by-row 100x100 map by ~1 MB
_SCAN_ELEMENTS = 8 * 402
_GOLDEN_TOL = 1e-6
_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _induced_channels(u, v, w, kappa) -> tuple:
    """(kinds, eta, noise) of the channels induced at gains ``kappa``, per lane:
    a list of kind names, eta = kappa^2 squared with pow, and n_e, or at unit
    gain eta = 1 and the Duan variance u + v - 2w.  Checks every lane."""
    if not _all(kappa > 0):
        raise ValueError("gain must be positive")
    unit = np.abs(kappa - 1.0) < _UNIT_GAIN_TOL
    eta = np.float_power(kappa, 2.0)
    n_e = (v * eta + u - 2 * w * kappa) / np.where(unit, 1.0, 2.0 * np.abs(1.0 - eta)) - 0.5
    if not _all(unit | (n_e >= -_NE_SLACK)):
        raise ValueError("negative effective occupation: source form is unphysical")
    kinds = [RANDOM_DISPLACEMENT if un else THERMAL_LOSS if k < 1.0 else THERMAL_AMP
             for un, k in zip(unit.tolist(), kappa.tolist())]
    return kinds, np.where(unit, 1.0, eta), np.where(unit, _duan(u, v, w), np.maximum(n_e, 0.0))


def induced_channel(form: TwoModeStandardForm, kappa: float) -> BosonicChannelKind:
    """Classify the channel induced by teleporting with gain ``kappa``; see `_induced_channels`."""
    (kind,), eta, noise = _induced_channels(form.u, form.v, form.w, np.array([kappa], float))
    return BosonicChannelKind(kind, float(eta[0]), float(noise[0]))


def _bounds_at_gains(form, kappas: np.ndarray) -> np.ndarray:
    """Clamped capacity lower bound at each gain, vectorized.

    ``form`` is a standard form, or any object whose ``u``, ``v`` and ``w``
    broadcast against ``kappas``, such as the lanes of a batched search.
    """
    u, v, w = form.u, form.v, form.w
    # squares as x * x, not pow as in `_induced_channels`: the gain-map golden
    # hashes pin the bits of this arithmetic
    k = np.asarray(kappas, dtype=float)
    eta = k * k
    noise = v * eta + u - 2.0 * w * k
    unit = np.abs(k - 1.0) < _UNIT_GAIN_TOL
    gap = np.abs(1.0 - eta)
    sigma = None
    if np.count_nonzero(unit):
        # a stand-in for 1 - eta = 0, so that no division below is by zero;
        # the unit-gain lanes are overwritten
        gap[unit] = 1.0
        if unit.shape != noise.shape:
            unit = np.broadcast_to(unit, noise.shape)
        sigma = noise[unit]
    # the loss/amplifier bound on every lane, with n_e made in place of the noise
    noise /= 2.0 * gap
    noise -= 0.5
    out = _loss_amp_info(eta, gap, np.maximum(noise, 0.0, out=noise))
    if sigma is not None:
        with np.errstate(divide="ignore", invalid="ignore"):  # sigma <= 0 reads 0
            out[unit] = np.where(sigma > 0, _coherent_info_displacement(sigma), 0.0)
    return np.maximum(out, 0.0, out=out)


@dataclass(frozen=True)
class GainSearchResult:
    """Outcome of optimizing the teleportation gain for capacity."""

    kappa_opt: float
    q_lb_opt: float
    channel: BosonicChannelKind


class _Lanes(NamedTuple):
    """The standard forms of a batched search, one per lane."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def take(self, idx) -> "_Lanes":
        return _Lanes(self.u[idx], self.v[idx], self.w[idx])

    def column(self) -> "_Lanes":
        return _Lanes(self.u[:, None], self.v[:, None], self.w[:, None])


@functools.cache
def _coarse_grid() -> np.ndarray:
    """The coarse gains every lane of a search scans.

    They are the 400 log-spaced gains of `GAIN_SEARCH_RANGE` and the seed
    kappa = 1, from the last gain with kappa^2 <= 1/2 on: below it the bound
    is exactly 0, and that closed node is kept as a lower bracket.

    A read-only constant built on the first search, not at import: building
    it pulls about 0.5 MB of numpy code into resident memory, which processes
    that never search gains should not pay for.
    """
    grid = np.sort(np.append(np.geomspace(*GAIN_SEARCH_RANGE, _COARSE_POINTS), 1.0))
    grid = grid[np.count_nonzero(grid**2 <= 0.5) - 1 :]
    grid.flags.writeable = False
    return grid


def _coarse_scan(lanes: _Lanes, extra: np.ndarray) -> tuple:
    """Best node of each lane's coarse grid, with the nodes either side of it.

    A lane's grid is `_coarse_grid()` plus its node in `extra`: its seed w/v,
    or, for an unseeded lane, a repeat of the last node, which moves neither
    its first maximum nor its upper bracket.  The first node and any seed
    below it read 0, so a positive maximum is never the first column, and the
    column below it holds the gain below it on the full grid too.  Lanes are
    scanned about `_SCAN_ELEMENTS` values at a time to bound the temporaries.  Returns the best value, its gain, and the
    lower and upper bracket, one of each per lane (the lower one is
    meaningless where the best value is 0).
    """
    n = lanes.u.size
    best_q, best_k, a, b = (np.empty(n) for _ in range(4))
    coarse = _coarse_grid()
    last = coarse.size
    chunk = _SCAN_ELEMENTS // (last + 1)
    for lo in range(0, n, chunk):
        part = slice(lo, lo + chunk)
        rows = np.arange(extra[part].size)
        grid = np.column_stack([np.broadcast_to(coarse, (rows.size, last)), extra[part]])
        grid.sort(axis=1)
        vals = _bounds_at_gains(lanes.take(part).column(), grid)
        best = np.argmax(vals, axis=1)
        best_q[part] = vals[rows, best]
        best_k[part] = grid[rows, best]
        a[part] = grid[rows, best - 1]
        b[part] = grid[rows, np.minimum(best + 1, last)]
    return best_q, best_k, a, b


def _golden_section(lanes: _Lanes, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Midpoint of each lane's bracket [a, b] after golden-section refinement.

    All lanes advance together: each takes the steps, with the arithmetic, of
    a one-lane search, and drops out once its bracket is within _GOLDEN_TOL.
    A step selects each lane's move with masks over the live lanes, whose
    arrays shrink only after a step that leaves some lane done.
    """
    mid = np.empty_like(a)
    x1 = b - _PHI * (b - a)
    x2 = a + _PHI * (b - a)
    f1, f2 = _bounds_at_gains(lanes, x1), _bounds_at_gains(lanes, x2)
    rows = np.arange(a.size)  # the live lanes' places in `mid`
    width = b - a
    while True:
        live = width > _GOLDEN_TOL
        n_live = np.count_nonzero(live)
        if n_live < rows.size:
            done = ~live
            mid[rows[done]] = 0.5 * (a[done] + b[done])
            rows, a, b, x1, x2, f1, f2 = (x[live] for x in (rows, a, b, x1, x2, f1, f2))
            lanes = lanes.take(live)
        if not n_live:
            return mid
        # where f1 < f2 the bracket drops [a, x1) and x2 becomes x1, else it
        # drops (x2, b] and x1 becomes x2; the probe is the new inner point
        up = f1 < f2
        a, b = np.where(up, x1, a), np.where(up, b, x2)
        width = b - a
        step = _PHI * width
        probe = np.where(up, a + step, b - step)
        x1, x2 = np.where(up, x2, probe), np.where(up, probe, x1)
        f = _bounds_at_gains(lanes, probe)
        f1, f2 = np.where(up, f2, f), np.where(up, f, f1)


def optimize_gains(u, v, w) -> tuple:
    """Maximize the induced-channel capacity lower bound over the gain, per form.

    ``u``, ``v`` and ``w`` hold one standard form per lane.  Each lane is
    scanned on 400 log-spaced gains in [1e-3, 10] plus the seeds kappa = 1
    and kappa = w/v (minimizer of the channel noise, when inside the range),
    then its best bracket is refined by golden-section search down to 1e-6
    in kappa.  The scan evaluates the 400 gains only from the last one with
    kappa^2 <= 1/2 on: the bound log2(eta/|1 - eta|) - g(n_e) is at most 0
    wherever eta = kappa^2 <= 1/2, so every gain dropped reads exactly 0, and
    the kept one still brackets a maximum at the next gain; the result is that
    of the scan of all of them.  The winner is the best of the refined
    midpoint, the seeds and the best coarse gain, the larger gain on a tie.
    A lane on which no gain opens the channel gets the zero bound at unit
    gain.  Lanes do not interact: each result equals that of a one-lane
    search.

    Returns (kappa_opt, q_lb_opt) as arrays, one entry per lane.
    """
    lanes = _Lanes(*(np.asarray(x, dtype=float).reshape(-1) for x in (u, v, w)))
    lo, hi = GAIN_SEARCH_RANGE
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lanes.w / lanes.v
    seeded = (lanes.v > 0) & (lo < ratio) & (ratio < hi)
    best_q, best_k, a, b = _coarse_scan(lanes, np.where(seeded, ratio, _coarse_grid()[-1]))

    kappa, q = np.ones_like(best_q), np.zeros_like(best_q)
    found = np.flatnonzero(best_q > 0.0)
    if found.size:
        sub = lanes.take(found)
        mid = _golden_section(sub, a[found], b[found])
        # an unseeded lane repeats the candidate kappa = 1, which cannot change its pick
        seeds = np.where(seeded[found], ratio[found], 1.0)
        cand_k = np.column_stack([mid, np.ones_like(mid), seeds, best_k[found]])
        cand_q = _bounds_at_gains(sub.column(), cand_k)
        top = cand_q.max(axis=1)
        kappa[found] = np.where(cand_q == top[:, None], cand_k, -np.inf).max(axis=1)
        q[found] = top
    return kappa, q


def optimize_gain(form: TwoModeStandardForm) -> GainSearchResult:
    """Maximize the induced-channel capacity lower bound over the gain.

    A thin wrapper over one lane of the array form `optimize_gains(u, v, w)`,
    which searches many standard forms at once, one lane per form, with each
    lane's result bit-identical to the search of its form alone.  See it for
    the search; the result adds the channel induced at the optimal gain.
    """
    kappa, q = (float(x[0]) for x in optimize_gains(form.u, form.v, form.w))
    return GainSearchResult(kappa, q, induced_channel(form, kappa))


def _fifty_fifty_bs(n_modes: int, i: int, j: int) -> np.ndarray:
    """Symmetric 50:50 beam splitter: x_i' = (x_i + x_j)/sqrt2, x_j' = (x_i - x_j)/sqrt2."""
    s = np.eye(2 * n_modes)
    r = 1.0 / np.sqrt(2.0)
    for q in range(2):
        a, b = 2 * i + q, 2 * j + q
        s[a, a] = r
        s[a, b] = r
        s[b, a] = r
        s[b, b] = -r
    return s


def teleport_oracle(v_oe: np.ndarray, v_in: np.ndarray, kappa: float) -> np.ndarray:
    """Output covariance of the teleportation protocol, computed moment by moment.

    The pipeline is explicit: stack (source, input), mix the microwave half
    of the source with the input on a balanced beam splitter, fold the
    gain-kappa feed-forward displacement into the optical quadratures using
    the blocks t1 = kappa (I + Z)/2 and t2 = kappa (Z - I)/2 (which touch
    only the q of one beam-splitter output and the p of the other), then
    homodyne those two quadratures in the ideal limit.  The returned
    ensemble covariance is the conditional covariance plus the spread of the
    feed-forward-corrected conditional means over the outcome distribution.
    It is the oracle of the induced-channel formula: the tests and
    ``selftest`` check that formula's (T, N) action against it, and no
    experiment calls it.
    """
    v_oe = np.asarray(v_oe, dtype=float)
    v_in = np.asarray(v_in, dtype=float)
    if v_oe.shape != (4, 4) or v_in.shape != (2, 2):
        raise ValueError("expected a 4x4 source and a 2x2 input covariance")
    if kappa <= 0:
        raise ValueError("gain must be positive")
    check_physical(v_oe)
    check_physical(v_in)

    v1 = np.zeros((6, 6))
    v1[:4, :4] = v_oe
    v1[4:, 4:] = v_in
    bs = _fifty_fifty_bs(3, 1, 2)
    v2 = bs @ v1 @ bs.T

    t1 = kappa * np.diag([1.0, 0.0])
    t2 = kappa * np.diag([0.0, -1.0])
    ff = np.eye(6)
    ff[0:2, 2:4] = -np.sqrt(2.0) * t1
    ff[0:2, 4:6] = -np.sqrt(2.0) * t2
    v3 = ff @ v2 @ ff.T

    # ideal homodyne of q on the first measured mode and p on the second:
    # directions within the measured block, quadrature order (q2, p2, q3, p3)
    directions = np.zeros((4, 2))
    directions[0, 0] = 1.0
    directions[3, 1] = 1.0
    gamma_a = v3[:2, :2]
    gamma_ab = v3[:2, 2:]
    gamma_b = v3[2:, 2:]
    cw = gamma_ab @ directions
    outcome_cov = directions.T @ gamma_b @ directions
    gain_map = cw @ np.linalg.pinv(outcome_cov, rcond=1e-12)
    conditional = gamma_a - gain_map @ outcome_cov @ gain_map.T
    # feed-forward already shifted the optical quadratures, so averaging the
    # corrected conditional means over outcomes restores the full spread
    mean_spread = gain_map @ outcome_cov @ gain_map.T
    out = conditional + mean_spread
    return 0.5 * (out + out.T)
