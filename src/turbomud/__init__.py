"""Soft-in-soft-out multiuser detection for synchronous CDMA.

Detectors are derived as minimizers of one variational free energy
under different postulated belief families: Gaussian beliefs give the
decorrelating / MMSE detectors and their SIC forms plus the Gaussian
SISO family; factorized binary beliefs give the mean-field (discrete)
SISO family, decision-feedback detection on the whitened model, and
closed-form joint estimation of amplitudes and noise variance.
Everything is imported from the modules; the package binds only
``__version__``.
"""

__version__ = "0.1.0"
