"""Spectral radii of commutators of selfadjoint involution pairs.

Pairs in one-shifted block form have a tridiagonal sum whose finite
sections can be cross-validated against closed-form spectra; the package
provides the eigensolver, the family builders, the closed forms, the
finite-section experiments, and a CLI.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy_import(name):
    """The module ``name`` as imported already, else a module whose body runs
    at its first attribute access.

    The modules bind numpy through this, so a request that never touches an
    array, such as a family ``rho``, never pays for numpy's import.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
