"""Spectral-efficiency limits of dense and one-sparse random spreading.

Closed-form large-system rates for the ten supported scheme
combinations (dense / one-sparse spreading, with / without unit-mean
Rayleigh fading, matched-filter / MMSE / zero-forcing / optimum
detection),
energy-per-bit conversions, the moment combinatorics of the limiting
spectral laws, and a finite-size Monte Carlo laboratory that
cross-validates all of it.

The package root re-exports nothing: import from the submodules
(``noma_limits.rates``, ``noma_limits.numerics``, ...), so that loading
the rate layer does not load numpy and the Monte Carlo lab.
"""

__version__ = "0.1.0"
