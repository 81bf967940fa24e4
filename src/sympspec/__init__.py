"""Symplectic spectra, Williamson normal forms, perturbation-bound checkers,
and Gaussian-state entropy utilities."""

from importlib import import_module as _import_module

from .densemat import (
    NormKind,
    Spectrum,
    condition_number,
    norm,
    psd_sqrt,
    singular_values,
    spd_inverse,
    sym_eig,
)

# The module that defines each other exported name. Every command needs
# densemat, so its names are bound above; these modules load on the first
# access to one of their names instead, and a command that never runs them
# never loads them. __getattr__ looks the name up on its module at every
# access and keeps nothing, so a name rebound there (a tracer's wrapper, a
# test's monkeypatch) shows here too.
_LAZY = {
    name: module
    for module, names in (
        ("gaussian", (
            "EntropyReport",
            "GaussianState",
            "entanglement_entropy",
            "entropy_difference_bound",
            "is_pure",
            "reduced_state",
            "validate_covariance",
        )),
        ("perturb", (
            "BoundReport",
            "DegenerateDemoReport",
            "PerturbationCase",
            "SweepReport",
            "bound_S",
            "bound_bhatia_jain",
            "bound_gram",
            "bound_spectrum",
            "check_eigvec_bound",
            "check_inv_lemma",
            "check_kappa_growth",
            "check_projection_bound",
            "check_sqrt_lemma",
            "check_woodbury_norm",
            "counterexample_scaling",
            "degenerate_demo",
            "sweep",
        )),
        ("symplectic", (
            "GaugeAlignment",
            "WilliamsonFactorization",
            "gauge_align",
            "is_symplectic",
            "standard_form",
            "symplectic_inverse",
            "symplectic_spectrum",
            "williamson",
        )),
    )
    for name in names
}

__all__ = [
    "NormKind",
    "Spectrum",
    "condition_number",
    "norm",
    "psd_sqrt",
    "singular_values",
    "spd_inverse",
    "sym_eig",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
