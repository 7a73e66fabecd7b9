"""Reaction kinetics: biomass growth rates f, substrate rates h, expansion g.

A :class:`KineticsModel` bundles three vectorized callables

* ``f(Y, C) -> (n, K)`` biomass volume-fraction rates,
* ``h(Y, C) -> (m, K)`` substrate rates,
* ``g(Y, C) -> (K,)``  local volumetric expansion rate (drives the velocity),

where ``Y`` has shape ``(n, K)`` and ``C`` shape ``(m, K)`` for any number of
sample points ``K``.  Presets cover the linear case and Monod saturation
kinetics; user callables are accepted as long as they honor the shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class KineticsModel:
    """Reaction model for ``n`` biomass species and ``m`` substrates.

    Attributes
    ----------
    n, m : int
        Component counts (each at least 1).
    f, h, g : callable
        Vectorized rate functions, see module docstring.  Each must be a pure
        function of ``(Y, C)``: the same arguments give the same result, and
        a call has no effect the solver could observe.
    quasi_positive : bool
        Set when the rates can never drive nonnegative data negative
        (``f_i >= 0`` and ``h_j >= 0`` whenever ``Y >= 0`` and ``C >= 0``).
    """

    n: int
    m: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    quasi_positive: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError(
                f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}",
                code="DIMENSION_MISMATCH",
            )


def zero_kinetics(n: int = 1, m: int = 1) -> KineticsModel:
    """Inert model: ``f = h = g = 0`` (trivially quasi-positive)."""

    def f(Y, C):
        return np.zeros_like(np.asarray(Y, dtype=float))

    def h(Y, C):
        return np.zeros_like(np.asarray(C, dtype=float))

    def g(Y, C):
        return np.zeros(np.asarray(Y).shape[-1])

    return KineticsModel(n=n, m=m, f=f, h=h, g=g, quasi_positive=True)


def linear_preset(A: np.ndarray, c: np.ndarray, B: np.ndarray, d: np.ndarray) -> KineticsModel:
    """Affine kinetics ``f = A Y + c``, ``h = B C + d``, ``g = sum_i f_i``.

    Shapes: ``A (n, n)``, ``c (n,)``, ``B (m, m)``, ``d (m,)``.  Mismatched
    shapes raise ``DIMENSION_MISMATCH``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    n, m = len(c), len(d)
    if A.shape != (n, n) or B.shape != (m, m):
        raise ValidationError(
            f"matrix/vector shapes disagree: A{A.shape} vs c({n},), B{B.shape} vs d({m},)",
            code="DIMENSION_MISMATCH",
        )
    if not all(np.all(np.isfinite(x)) for x in (A, B, c, d)):
        raise ValidationError("non-finite coefficients", code="NONFINITE_INPUT")

    def f(Y, C):
        return A @ Y + c[:, None]

    def h(Y, C):
        return B @ C + d[:, None]

    def g(Y, C):
        return (A @ Y + c[:, None]).sum(axis=0)

    # quasi-positive only in the degenerate all-zero case; affine rates can
    # always be driven negative otherwise.
    qp = not (A.any() or B.any() or c.any() or d.any())
    return KineticsModel(n=n, m=m, f=f, h=h, g=g, quasi_positive=qp)


@dataclass(frozen=True)
class MonodParams:
    """Parameters for saturation (Monod) growth kinetics.

    Attributes
    ----------
    mu : numpy.ndarray, shape (n,)
        Maximum specific growth rates, strictly positive.
    K : numpy.ndarray, shape (n,)
        Half-saturation constants, strictly positive.
    k_d : numpy.ndarray, shape (n,)
        Decay/maintenance rates, nonnegative.
    limiting : numpy.ndarray of int, shape (n,)
        Index of the substrate limiting each species' growth.
    yields : numpy.ndarray, shape (n, m)
        Yield coefficients; entry ``(i, j) > 0`` means species ``i`` consumes
        substrate ``j`` with that yield, ``0`` means no consumption.
    """

    mu: np.ndarray
    K: np.ndarray
    k_d: np.ndarray
    limiting: np.ndarray
    yields: np.ndarray

    def __post_init__(self):
        for name in ("mu", "K", "k_d", "limiting", "yields"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))


def monod_preset(params: MonodParams, m: int | None = None) -> KineticsModel:
    """Saturation kinetics with optional decay and substrate consumption.

    Growth: ``f_i = (mu_i * C_l / (K_i + C_l) - k_d_i) * Y_i`` with ``l`` the
    species' limiting substrate.  Consumption: ``h_j`` sums
    ``-(1 / yields[i, j]) * mu_i * C_j / (K_i + C_j) * Y_i`` over consuming
    species.  Expansion ``g = sum_i f_i``.

    Raises
    ------
    ValidationError
        Code ``NONPOSITIVE_PARAM`` for ``mu <= 0``, ``K <= 0``, ``k_d < 0`` or
        a negative yield; ``DIMENSION_MISMATCH`` for inconsistent shapes or a
        limiting index outside ``[0, m)``.
    """
    mu = np.atleast_1d(np.asarray(params.mu, dtype=float))
    K = np.atleast_1d(np.asarray(params.K, dtype=float))
    k_d = np.atleast_1d(np.asarray(params.k_d, dtype=float))
    limiting = np.atleast_1d(np.asarray(params.limiting, dtype=int))
    yields = np.atleast_2d(np.asarray(params.yields, dtype=float))
    n = len(mu)
    if m is None:
        m = yields.shape[1]
    if K.shape != (n,) or k_d.shape != (n,) or limiting.shape != (n,) or yields.shape != (n, m):
        raise ValidationError(
            f"inconsistent Monod parameter shapes for n={n}, m={m}",
            code="DIMENSION_MISMATCH",
        )
    if np.any(mu <= 0.0) or np.any(K <= 0.0):
        raise ValidationError("mu and K must be > 0", code="NONPOSITIVE_PARAM")
    if np.any(k_d < 0.0):
        raise ValidationError("decay rates must be >= 0", code="NONPOSITIVE_PARAM")
    if np.any(yields < 0.0):
        raise ValidationError(
            "yields must be > 0 for consuming pairs (0 = no consumption)",
            code="NONPOSITIVE_PARAM",
        )
    if np.any(limiting < 0) or np.any(limiting >= m):
        raise ValidationError(
            f"limiting substrate indices must lie in [0, {m})", code="DIMENSION_MISMATCH"
        )

    consuming = yields > 0.0  # (n, m) mask
    # (species, substrate, mu, K, yield) of every consuming pair, in i-major order
    pairs = [(i, int(j), float(mu[i]), float(K[i]), float(yields[i, j]))
             for i in range(n) for j in np.nonzero(consuming[i])[0]]

    # a single species' constants as Python floats, which numpy applies faster
    mu_col, K_col, k_d_col = (float(x[0]) if n == 1 else x[:, None] for x in (mu, K, k_d))
    # limiting substrates l, l+1, ... are taken as a view, any others by index
    lo = int(limiting[0])
    rows = slice(lo, lo + n) if np.array_equal(limiting, np.arange(lo, lo + n)) else limiting

    def f(Y, C):
        Cl = C[rows]                          # (n, K) limiting substrate per species
        return (mu_col * Cl / (K_col + Cl) - k_d_col) * Y

    def h(Y, C):
        out = np.zeros(C.shape)
        for i, j, mu_i, K_i, yield_ij in pairs:
            Cj = C[j]
            out[j] -= mu_i * Cj / (K_i + Cj) * Y[i] / yield_ij
        return out

    def g(Y, C):
        return f(Y, C).sum(axis=0)

    qp = bool(np.all(k_d == 0.0) and not consuming.any())
    return KineticsModel(n=n, m=m, f=f, h=h, g=g, quasi_positive=qp)
