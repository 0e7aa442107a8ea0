"""Spectral radii of commutators of selfadjoint involution pairs.

Pairs in one-shifted block form have a tridiagonal sum whose finite
sections can be cross-validated against closed-form spectra; the package
provides the eigensolver, the family builders, the closed forms, the
finite-section experiments, and a CLI.
"""

__version__ = "0.1.0"
