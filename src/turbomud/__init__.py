"""Soft-in-soft-out multiuser detection for synchronous CDMA.

Detectors are derived as minimizers of one variational free energy
under different postulated belief families: Gaussian beliefs give the
decorrelating / MMSE detectors and their SIC forms plus the Gaussian
SISO family; factorized binary beliefs give the mean-field (discrete)
SISO family, decision-feedback detection on the whitened model, and
closed-form joint estimation of amplitudes and noise variance.
"""

from . import (channel, coding, detect_linear, harness, linalg, siso_ddf,
               siso_discrete, siso_gaussian, varem)
from .channel import (ChannelInstance, Observation, SymbolBlock,
                      make_equicorrelated, make_random_spreading, transmit)
from .coding import ConvCode, ConvTurboDecoder, IdentityDecoder, LlrFrame
from .detect_linear import ClipBox, GaussianBelief, decorrelate, mmse, sic
from .errors import (ConfigError, DegeneratePrior, DimensionMismatch,
                     DomainError, InvalidCorrelation, InvalidPermutation,
                     LengthMismatch, NotPositiveDefinite, RankDeficient,
                     SingularCovariance, TurbomudError)
from .harness import BerReport, ScenarioConfig, run_scenario, single_user_bound
from .siso_ddf import DdfPrecompute, ddf_pass
from .siso_discrete import DiscreteBelief, serial_update
from .siso_gaussian import (GaussianPrior, ext_flooding, ext_hybrid,
                            solve_gauss, wang_poor_oracle)
from .varem import EmState, PosteriorSummary, mstep_disc, mstep_gauss, run_varem

__version__ = "0.1.0"
