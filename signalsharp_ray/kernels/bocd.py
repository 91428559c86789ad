"""Bayesian online changepoint detection (BOCD).

Adams & MacKay 2007, "Bayesian Online Changepoint Detection"
(arXiv:0710.3742, public) — the run-length posterior recursion with a
constant hazard rate and a Normal-Gamma conjugate model (unknown mean AND
unknown variance, Student-t predictive). This is the one algorithm from the
reference's own roadmap (/root/reference/docs/docs/future-plans.md:18
"Bayesian Online Changepoint Detection") the reference has not implemented;
it completes the changepoint family next to PELT
(/root/reference/SignalSharp/Detection/PELT/PELTAlgorithm.cs) and CUSUM.

Per-series sequential kernel: the whole time-sorted series reaches one call
(the same bucketed_map_groups contract as kernels.pelt / kernels.cusum —
distribution happens across series, not within one).

Vectorized over the run-length axis: each step is O(active run lengths) in
numpy, with the run-length distribution truncated at negligible mass so a
length-n series costs O(n * r_active) rather than O(n^2) when posteriors
concentrate. lgamma values are table lookups (alpha only ever takes values
alpha0 + k/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log, pi

import numpy as np


@dataclass
class BOCDOptions:
    hazard: float = 1.0 / 250.0  # constant hazard: P(changepoint) per step
    mu0: float = 0.0             # prior mean
    kappa0: float = 1.0          # prior pseudo-observations for the mean
    alpha0: float = 1.0          # prior Gamma shape (variance)
    beta0: float = 1.0           # prior Gamma rate (variance)
    trunc_logmass: float = -46.0  # drop run lengths below e^-46 (~1e-20) mass
    max_run_lengths: int = 8192  # hard cap on the active run-length axis

    def __post_init__(self):
        if not 0.0 < self.hazard < 1.0:
            raise ValueError("hazard must be in (0, 1)")
        if self.kappa0 <= 0 or self.alpha0 <= 0 or self.beta0 <= 0:
            raise ValueError("kappa0, alpha0, beta0 must be positive")
        if self.max_run_lengths < 8:
            raise ValueError("max_run_lengths must be >= 8")


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(a - m).sum()))


def bocd_map_run_lengths(signal, options: BOCDOptions | None = None) -> np.ndarray:
    """MAP run length after each observation.

    Returns r[t] = argmax of the run-length posterior P(r_t | x_{1..t}).
    r[t] == 0 means "a changepoint most likely occurred AT index t" (x[t]
    opened a new segment).
    """
    opts = options or BOCDOptions()
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("bocd expects a univariate series")
    n = x.size
    maps = np.zeros(n, dtype=np.int64)
    if n == 0:
        return maps

    # lgamma lookup: alpha after j absorbed points is alpha0 + j/2
    lg = np.array([lgamma(opts.alpha0 + 0.5 * j) for j in range(n + 2)])

    log_h = log(opts.hazard)
    log_1mh = log(1.0 - opts.hazard)

    # posterior parameters per active run length (slot r absorbed r points)
    mu = np.array([opts.mu0])
    kappa = np.array([opts.kappa0])
    beta = np.array([opts.beta0])
    run_obs = np.array([0], dtype=np.int64)  # points absorbed per slot
    log_r = np.array([0.0])

    for t in range(n):
        xt = x[t]
        alpha = opts.alpha0 + 0.5 * run_obs
        # Student-t predictive: df = 2*alpha, scale^2 = beta(kappa+1)/(alpha*kappa)
        df = 2.0 * alpha
        s2 = beta * (kappa + 1.0) / (alpha * kappa)
        lga1 = lg[run_obs + 1]  # lgamma(alpha + 1/2)
        lga = lg[run_obs]       # lgamma(alpha)
        z2 = (xt - mu) ** 2 / (df * s2)
        log_pred = (
            lga1 - lga - 0.5 * np.log(df * pi * s2)
            - (alpha + 0.5) * np.log1p(z2)
        )
        joint = log_r + log_pred
        l_growth = joint + log_1mh
        l_cp = _logsumexp(joint) + log_h
        log_r = np.concatenate(([l_cp], l_growth))
        log_r -= _logsumexp(log_r)

        # conjugate update: slot r+1 absorbs xt; slot 0 restarts at the prior
        mu_new = (kappa * mu + xt) / (kappa + 1.0)
        beta_new = beta + kappa * (xt - mu) ** 2 / (2.0 * (kappa + 1.0))
        mu = np.concatenate(([opts.mu0], mu_new))
        kappa = np.concatenate(([opts.kappa0], kappa + 1.0))
        beta = np.concatenate(([opts.beta0], beta_new))
        run_obs = np.concatenate(([0], run_obs + 1))

        # slot index != run length once truncation has dropped slots
        maps[t] = int(run_obs[np.argmax(log_r)])

        # truncate negligible-mass run lengths (keep slot 0: the recursion
        # must always be able to restart)
        if log_r.size > opts.max_run_lengths:
            keep = np.argsort(log_r)[-opts.max_run_lengths:]
            keep = np.union1d(keep, [0])
        else:
            keep = np.flatnonzero(log_r >= opts.trunc_logmass)
            if keep.size == 0 or keep[0] != 0:
                keep = np.concatenate(([0], keep))
        if keep.size < log_r.size:
            log_r = log_r[keep]
            mu, kappa, beta, run_obs = mu[keep], kappa[keep], beta[keep], run_obs[keep]
            log_r -= _logsumexp(log_r)

    return maps


def bocd_changepoints(signal, options: BOCDOptions | None = None) -> np.ndarray:
    """Detected changepoint indices from MAP run-length drops.

    Under the Adams & MacKay message convention the predictive of x_t is
    shared by the growth AND changepoint branches, so a reset shows as
    maps[t] == 1 ("the current run contains exactly x_t"). A detection is
    any t where the MAP run length DROPS (maps[t] < maps[t-1]); the
    changepoint index is t - maps[t] + 1 — the first point of the new
    segment, matching the PELT/CUSUM segment-start convention
    (kernels/pelt.py golden [1,1,1,5,5,5,1,1,1] -> [3,6]). On a
    well-separated step series this lands exactly on the level changes,
    which makes the operator closed-form verifiable.
    """
    maps = bocd_map_run_lengths(signal, options)
    if maps.size < 2:
        return np.zeros(0, dtype=np.int64)
    t = np.flatnonzero(maps[1:] < maps[:-1]) + 1
    cps = np.unique(t - maps[t] + 1)
    return cps[cps > 0].astype(np.int64)
