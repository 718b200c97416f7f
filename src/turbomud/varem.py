"""Joint estimation of amplitudes and noise variance with detection.

The turbo detector supplies the approximate posterior over the symbols
(E step); closed-form coordinate updates of the amplitude vector a and
noise variance sigma2 minimize the same free energy over the parameters
(M step).  Over T intervals with belief means m_t and per-user belief
variances v_t the parameter-dependent part of the free energy is

    F(a, sigma2) = NT/2 log sigma2
                   + 1/(2 sigma2) sum_t [ ||r_t - S diag(m_t) a||^2
                                          + sum_k dgS_k v_tk a_k^2 ]
                   + 1/(2 varsigma2) ||a - atilde||^2,

with dgS = diag(S^T S).  Equating dF/da = 0 with the current sigma2
gives the ridge-regularized normal equations for a; substituting the
new a and equating dF/d(1/sigma2) = 0 gives sigma2 as the posterior-
averaged residual energy.  The pair is a coordinate-descent step, so
the free energy never increases.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import spd_solve
from .siso_ddf import AMPLITUDE_DESCENDING, bind_ddf_hook
from .siso_discrete import DiscreteTurboLoop
from .siso_gaussian import GaussianTurboLoop, clamp_llr

SIGMA2_FLOOR = 1e-9
SIGMA2_INIT_FLOOR = 1e-3

GAUSSIAN = "gaussian"
DISCRETE = "discrete"


@dataclass(frozen=True)
class EmState:
    """Current parameter estimates and the amplitude prior.

    varsigma2 is the variance of the amplitude measurement error:
    numpy.inf encodes a flat prior, 0 pins the estimate to atilde.
    """

    a_hat: np.ndarray
    sigma2_hat: float
    a_tilde: np.ndarray
    varsigma2: float
    T: int

    def __post_init__(self):
        object.__setattr__(self, "a_hat", np.asarray(self.a_hat, dtype=float))
        object.__setattr__(self, "a_tilde",
                           np.asarray(self.a_tilde, dtype=float))
        object.__setattr__(self, "sigma2_hat",
                           max(float(self.sigma2_hat), SIGMA2_FLOOR))


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-interval belief means (T, K) and variances (T, K)."""

    means: np.ndarray
    variances: np.ndarray

    @classmethod
    def from_means(cls, means):
        means = np.asarray(means, dtype=float)
        return cls(means=means, variances=1.0 - means**2)


def initial_sigma2(obs, a_tilde, N):
    """Moment-matched starting noise variance.

    Average received energy per chip minus the prior signal-energy
    estimate, floored at 1e-3 so the first detection pass stays finite.
    """
    r = obs.r
    a_tilde = np.asarray(a_tilde, dtype=float)
    est = np.mean(np.sum(r * r, axis=1)) / N - a_tilde @ a_tilde / N
    return max(est, SIGMA2_INIT_FLOOR)


def _mstep_amplitudes(S, obs, means, quad, state):
    """Shared normal-equation solve for the amplitude update."""
    rhs = np.sum(obs.y * means, axis=0)  # sum_t diag(m_t) S^T r_t
    if np.isfinite(state.varsigma2):
        ridge = state.sigma2_hat / state.varsigma2
        quad = quad + ridge * np.eye(S.shape[1])
        rhs = rhs + ridge * state.a_tilde
    return spd_solve(quad, rhs)


def _residual_energy(S, obs, means, variances, a):
    """sum_t ||r_t - S diag(m_t) a||^2 + sum_tk dgS_k v_tk a_k^2."""
    resid = obs.r - (means * a) @ S.T
    dgS = np.sum(S * S, axis=0)
    return float(np.sum(resid * resid) + np.sum(variances * (dgS * a**2)))


def mstep_gauss(S, obs, post, state, update_amplitudes=True,
                update_sigma2=True):
    """Parameter update from Gaussian-belief posterior summaries.

    Amplitudes solve { sum_t [M_t S^T S M_t + (S^T S) o Sigma_t]
    + (sigma2/varsigma2) I } a = sum_t M_t S^T r_t
    + (sigma2/varsigma2) atilde with diagonal belief covariances
    Sigma_t = diag(v_t); the noise variance is the averaged residual
    energy at the new amplitudes.
    """
    means, variances = post.means, post.variances
    T = means.shape[0]
    a_hat = state.a_hat
    if update_amplitudes and state.varsigma2 != 0.0:
        R_geo = S.T @ S
        quad = R_geo * (means.T @ means)  # sum_t M_t S^T S M_t
        quad += np.diag(np.diagonal(R_geo) * np.sum(variances, axis=0))
        a_hat = _mstep_amplitudes(S, obs, means, quad, state)
    elif update_amplitudes:
        a_hat = state.a_tilde.copy()
    sigma2 = state.sigma2_hat
    if update_sigma2:
        sigma2 = _residual_energy(S, obs, means, variances, a_hat) \
            / (S.shape[0] * T)
    return replace(state, a_hat=a_hat, sigma2_hat=sigma2)


def mstep_disc(S, obs, post, state, update_amplitudes=True,
               update_sigma2=True):
    """Parameter update from factorized binary posterior means.

    Amplitudes solve { sum_t [diag(S^T S)
    + M_t (S^T S - diag(S^T S)) M_t] + (sigma2/varsigma2) I } a = ...,
    the hollow-Gram form of the same normal equations with belief
    variances 1 - m^2; the noise variance adds the (1 - m^2) amplitude
    energy to the residual, which vanishes as the beliefs harden.
    """
    means = post.means
    variances = 1.0 - means**2
    T = means.shape[0]
    a_hat = state.a_hat
    if update_amplitudes and state.varsigma2 != 0.0:
        R_geo = S.T @ S
        dgS = np.diagonal(R_geo)
        hollow = R_geo - np.diag(dgS)
        quad = hollow * (means.T @ means) + T * np.diag(dgS)
        a_hat = _mstep_amplitudes(S, obs, means, quad, state)
    elif update_amplitudes:
        a_hat = state.a_tilde.copy()
    sigma2 = state.sigma2_hat
    if update_sigma2:
        sigma2 = _residual_energy(S, obs, means, variances, a_hat) \
            / (S.shape[0] * T)
    return replace(state, a_hat=a_hat, sigma2_hat=sigma2)


def em_objective(S, obs, post, sigma2, a, a_tilde, varsigma2):
    """Parameter-dependent free energy (belief-only terms dropped).

    Used by the descent and stationarity tests; differences across
    parameter values equal differences of the full free energy.
    """
    a = np.asarray(a, dtype=float)
    T = post.means.shape[0]
    N = S.shape[0]
    val = 0.5 * N * T * np.log(sigma2) \
        + _residual_energy(S, obs, post.means, post.variances, a) \
        / (2.0 * sigma2)
    if np.isfinite(varsigma2) and varsigma2 > 0:
        d = a - np.asarray(a_tilde, dtype=float)
        val += (d @ d) / (2.0 * varsigma2)
    return float(val)


def em_objective_grad_a(S, obs, post, sigma2, a, a_tilde, varsigma2):
    """Analytic gradient of ``em_objective`` in the amplitude vector."""
    a = np.asarray(a, dtype=float)
    means, variances = post.means, post.variances
    R_geo = S.T @ S
    quad = R_geo * (means.T @ means)
    quad += np.diag(np.diagonal(R_geo) * np.sum(variances, axis=0))
    g = (quad @ a - np.sum(obs.y * means, axis=0)) / sigma2
    if np.isfinite(varsigma2) and varsigma2 > 0:
        g += (a - np.asarray(a_tilde, dtype=float)) / varsigma2
    return g


def run_varem(ch_true, obs, detector_family, schedule, J, decoder, state0,
              update_amplitudes=True, update_sigma2=True, I=6,
              ddf_seed=False, order_policy=AMPLITUDE_DESCENDING,
              mstep_per_user=False):
    """Alternate turbo detection (E) and parameter updates (M).

    Each outer iteration detects and decodes with the current
    (a_hat, sigma2_hat), forms the decoder-informed posterior estimate
    b_hat = tanh(LLR_mud/2 + LLR_dec/2) with belief variances
    1 - b_hat^2, and then runs the closed-form M step.  Returns the
    frame history and the EmState trajectory (initial state included).

    ``mstep_per_user`` instead refreshes column k of b_hat and runs the
    M step right after each user k decodes, so the following users are
    detected with the new estimates; the trajectory keeps one state per
    outer iteration.  Only the sequential Gaussian detector supports it.
    """
    if mstep_per_user and (detector_family != GAUSSIAN
                           or schedule != "sequential"):
        raise ValueError("per-user M-step cadence requires the "
                         "sequential Gaussian detector")
    state = state0
    trajectory = [state]
    frames = []
    if detector_family == GAUSSIAN:
        loop = GaussianTurboLoop(obs, decoder, schedule, ch_true.K)
        mstep = mstep_gauss
    elif detector_family == DISCRETE:
        hook = bind_ddf_hook(obs, order_policy) if ddf_seed else None
        loop = DiscreteTurboLoop(obs, decoder, schedule, ch_true.K, I=I,
                                 first_iteration_hook=hook)
        mstep = mstep_disc
    else:
        raise ValueError(f"unknown detector family {detector_family!r}")
    b_hat = np.zeros(obs.y.shape)

    def mstep_after(users, llr_mud, llr_dec):
        """M step after refreshing the posterior means of ``users``."""
        nonlocal state
        b_hat[:, users] = np.tanh(clamp_llr(llr_mud + llr_dec) / 2.0)
        state = mstep(ch_true.S, obs, PosteriorSummary.from_means(b_hat),
                      state, update_amplitudes=update_amplitudes,
                      update_sigma2=update_sigma2)
        return _estimated_channel(ch_true, state)

    for _ in range(J):
        ch_est = _estimated_channel(ch_true, state)
        if mstep_per_user:
            frame = loop.iterate(ch_est, after_user=mstep_after)
        else:
            frame = loop.iterate(ch_est)
            if update_amplitudes or update_sigma2:
                mstep_after(slice(None), frame.llr_mud, frame.llr_dec)
        frames.append(frame)
        trajectory.append(state)
    return frames, trajectory


def _estimated_channel(ch_true, state):
    """True geometry with the current amplitude and noise estimates."""
    return ch_true.with_params(a=np.maximum(state.a_hat, 1e-6),
                               sigma2=state.sigma2_hat)
