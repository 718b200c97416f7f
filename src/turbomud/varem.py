"""Joint estimation of amplitudes and noise variance with detection.

The turbo detector supplies the approximate posterior over the symbols
(E step); closed-form coordinate updates of the amplitude vector a and
noise variance sigma2 minimize the same free energy over the parameters
(M step).  Over T intervals with factorized binary beliefs of means m_t,
whose variances are v_t = 1 - m_t^2, the parameter-dependent part of
the free energy is

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
from functools import partial

import numpy as np

from .linalg import spd_solve
from .siso_ddf import AMPLITUDE_DESCENDING, DdfPrecompute, ddf_pass_block
from .siso_discrete import DEFAULT_INNER_ITERS, DiscreteTurboLoop
from .siso_gaussian import GaussianTurboLoop, clamp_llr

SIGMA2_FLOOR = 1e-9
SIGMA2_INIT_FLOOR = 1e-3
AMPLITUDE_FLOOR = 1e-6  # detector-side floor of estimated amplitudes

DDF_AIDED = "ddf_aided"
DETECTORS = ("gaussian", "discrete", DDF_AIDED)


@dataclass(frozen=True)
class EmState:
    """Current parameter estimates, the amplitude prior and what EM
    estimates.

    varsigma2 is the variance of the amplitude measurement error:
    numpy.inf encodes a flat prior, 0 pins the estimate to atilde.
    sigma2 is estimated when estimate_sigma2, a required field, is set.
    """

    a_hat: np.ndarray
    sigma2_hat: float
    a_tilde: np.ndarray
    varsigma2: float
    estimate_sigma2: bool

    def __post_init__(self):
        object.__setattr__(self, "a_hat", np.asarray(self.a_hat, dtype=float))
        object.__setattr__(self, "a_tilde",
                           np.asarray(self.a_tilde, dtype=float))
        object.__setattr__(self, "sigma2_hat",
                           max(float(self.sigma2_hat), SIGMA2_FLOOR))


def initial_sigma2(ch, obs, a_tilde):
    """Moment-matched starting noise variance.

    Average received energy per chip minus the prior signal-energy
    estimate, floored at 1e-3 so the first detection pass stays finite.
    """
    r = obs.r
    a_tilde = np.asarray(a_tilde, dtype=float)
    est = np.mean(np.sum(r * r, axis=1)) / ch.N - a_tilde @ a_tilde / ch.N
    return max(est, SIGMA2_INIT_FLOOR)


def _gauss_quad(ch, means):
    """sum_t [M_t R M_t + R o diag(1 - m_t^2)], the quadratic term of the
    free energy in the amplitudes."""
    quad = ch.R * (means.T @ means)  # sum_t M_t R M_t
    quad += np.diag(np.diagonal(ch.R) * np.sum(1.0 - means**2, axis=0))
    return quad


def _residual_energy(ch, obs, means, a):
    """sum_t ||r_t - S diag(m_t) a||^2 + sum_tk dgS_k (1 - m_tk^2) a_k^2."""
    S = ch.S
    resid = obs.r - (means * a) @ S.T
    dgS = np.sum(S * S, axis=0)  # diag(R) only up to rounding
    return float(np.sum(resid * resid)
                 + np.sum((1.0 - means**2) * (dgS * a**2)))


def mstep_gauss(ch, obs, means, state):
    """Parameter update from Gaussian beliefs with means m_t and
    variances 1 - m_t^2.

    Amplitudes solve { sum_t [M_t R M_t + R o Sigma_t]
    + (sigma2/varsigma2) I } a = sum_t M_t S^T r_t
    + (sigma2/varsigma2) atilde with diagonal belief covariances
    Sigma_t = diag(1 - m_t^2); the noise variance is the averaged
    residual energy at the new amplitudes.
    """
    return _mstep(ch, obs, means, state, _gauss_quad(ch, means))


def mstep_disc(ch, obs, means, state):
    """Parameter update from factorized binary posterior means.

    Amplitudes solve { sum_t [diag(R) + M_t (R - diag(R)) M_t]
    + (sigma2/varsigma2) I } a = ..., the hollow-Gram form of the same
    normal equations; the noise variance adds the (1 - m^2) amplitude
    energy to the residual, which vanishes as the beliefs harden.
    """
    dgR = np.diag(np.diagonal(ch.R))
    quad = (ch.R - dgR) * (means.T @ means) + means.shape[0] * dgR
    return _mstep(ch, obs, means, state, quad)


def _mstep(ch, obs, means, state, quad):
    """Body shared by both M steps: varsigma2 = 0 pins the amplitudes to
    atilde, any other value solves the normal equations with ``quad`` as
    their quadratic term; then sigma2 if ``state.estimate_sigma2``.
    Only the channel's geometry is read: the estimates are ``state``'s."""
    if state.varsigma2 == 0.0:
        a_hat = state.a_tilde.copy()
    else:
        rhs = np.sum(obs.y * means, axis=0)  # sum_t diag(m_t) S^T r_t
        if np.isfinite(state.varsigma2):
            ridge = state.sigma2_hat / state.varsigma2
            quad = quad + ridge * np.eye(ch.K)
            rhs = rhs + ridge * state.a_tilde
        a_hat = spd_solve(quad, rhs)
    sigma2 = state.sigma2_hat
    if state.estimate_sigma2:
        sigma2 = _residual_energy(ch, obs, means, a_hat) \
            / (ch.N * means.shape[0])
    return replace(state, a_hat=a_hat, sigma2_hat=sigma2)


def em_objective(ch, obs, means, sigma2, a, a_tilde, varsigma2):
    """Parameter-dependent free energy (belief-only terms dropped).

    Used by the descent and stationarity tests; differences across
    parameter values equal differences of the full free energy.
    """
    a = np.asarray(a, dtype=float)
    val = 0.5 * ch.N * means.shape[0] * np.log(sigma2) \
        + _residual_energy(ch, obs, means, a) / (2.0 * sigma2)
    if np.isfinite(varsigma2) and varsigma2 > 0:
        d = a - np.asarray(a_tilde, dtype=float)
        val += (d @ d) / (2.0 * varsigma2)
    return float(val)


def em_objective_grad_a(ch, obs, means, sigma2, a, a_tilde, varsigma2):
    """Analytic gradient of ``em_objective`` in the amplitude vector."""
    a = np.asarray(a, dtype=float)
    g = (_gauss_quad(ch, means) @ a - np.sum(obs.y * means, axis=0)) / sigma2
    if np.isfinite(varsigma2) and varsigma2 > 0:
        g += (a - np.asarray(a_tilde, dtype=float)) / varsigma2
    return g


def run_varem(ch_true, obs, detector, schedule, J, decoder, state0=None,
              I=DEFAULT_INNER_ITERS, order_policy=AMPLITUDE_DESCENDING):
    """Alternate turbo detection (E) and parameter updates (M).

    ``detector`` is ``"gaussian"``, ``"discrete"`` (mean-field, I inner
    sweeps per outer iteration) or ``"ddf_aided"`` (mean-field whose
    first outer iteration is the DDF pass, every call on one
    ``DdfPrecompute`` in ``order_policy`` order of the starting channel).
    Each outer iteration detects and decodes with the current
    (a_hat, sigma2_hat), forms the decoder-informed posterior estimate
    b_hat = tanh(LLR_mud/2 + LLR_dec/2) with belief variances
    1 - b_hat^2, and then runs the closed-form M step, so the channel
    is fixed within an iteration.  Returns the frame history and the
    EmState trajectory (initial state included).

    ``state0`` says what is estimated: the amplitudes when its
    varsigma2 > 0 (M steps pin them to a_tilde at 0; only estimated
    amplitudes are floored at AMPLITUDE_FLOOR), sigma2 when its
    estimate_sigma2 is set, with one M step per outer iteration.  Every
    detector shares one M step, ``mstep_gauss``: with belief variances
    1 - b_hat^2 it is the hollow-Gram ``mstep_disc`` up to rounding.
    The default ``state0`` holds the true parameters and estimates
    neither: the plain turbo schedule.  EmState floors sigma2 at
    SIGMA2_FLOOR: a channel below it is detected at the floor.
    """
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    state = state0 if state0 is not None else EmState(
        a_hat=ch_true.a, sigma2_hat=ch_true.sigma2, a_tilde=ch_true.a,
        varsigma2=0.0, estimate_sigma2=False)
    ch_est = _estimated_channel(ch_true, state)
    if detector == "gaussian":
        loop = GaussianTurboLoop(obs, decoder, schedule)
    else:
        seed = None if detector != DDF_AIDED else partial(
            ddf_pass_block, ch_est, obs.y,
            pre=DdfPrecompute.from_channel(ch_est, order_policy))
        loop = DiscreteTurboLoop(obs, decoder, schedule, I=I, seed=seed)
    trajectory = [state]
    frames = []
    for _ in range(J):
        frame = loop.iterate(ch_est)
        if state.estimate_sigma2 or state.varsigma2 > 0:
            b_hat = np.tanh(clamp_llr(frame.llr_post) / 2.0)
            state = mstep_gauss(ch_true, obs, b_hat, state)
            ch_est = _estimated_channel(ch_true, state)
        frames.append(frame)
        trajectory.append(state)
    return frames, trajectory


def _estimated_channel(ch_true, state):
    """True geometry with the current estimates (estimated a floored)."""
    a = np.maximum(state.a_hat, AMPLITUDE_FLOOR) if state.varsigma2 > 0 \
        else state.a_hat
    return ch_true.with_params(a=a, sigma2=state.sigma2_hat)
