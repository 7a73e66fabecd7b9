"""Reaction kinetics: biomass growth rates f, substrate rates h, expansion g.

A :class:`KineticsModel` bundles three vectorized callables

* ``f(Y, C) -> (n, K)`` biomass volume-fraction rates,
* ``h(Y, C) -> (m, K)`` substrate rates,
* ``g(Y, C) -> (K,)``  local volumetric expansion rate (drives the velocity),

where ``Y`` has shape ``(n, K)`` and ``C`` shape ``(m, K)`` for any number of
sample points ``K``.  Presets cover the linear case and Monod saturation
kinetics; user callables are accepted as long as they honor the shapes.  A
preset's ``g`` is the species sum of its ``f``, which the solver takes from
its own ``f`` call (:meth:`KineticsModel.fg`); a custom ``g`` is called as
given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False, repr=False)
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
            raise ValidationError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}",
                                  code="DIMENSION_MISMATCH")

    def fg(self, Y: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(f(Y, C), g(Y, C))`` as float arrays.  When ``g`` is the species
        sum of this very ``f`` (a preset's, see :func:`_species_sum`), both
        come from one ``f`` call; otherwise ``f`` and ``g`` are each called."""
        F = np.asarray(self.f(Y, C), dtype=float)
        if getattr(self.g, "sum_of", None) is self.f:
            return F, np.add.reduce(F, axis=0)
        return F, np.asarray(self.g(Y, C), dtype=float)


def _species_sum(f):
    """``g = sum_i f_i``, tagged with the ``f`` it sums so that
    :meth:`KineticsModel.fg` can take it from its own ``f`` call."""

    def g(Y, C):
        return f(Y, C).sum(axis=0)

    g.sum_of = f
    return g


def _array(value, name: str) -> np.ndarray:
    """``value`` as a float array; a ragged or non-numeric one is a
    ``DIMENSION_MISMATCH`` naming the parameter."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a rectangular array of numbers, got {value!r}",
                              code="DIMENSION_MISMATCH") from None


def _shaped(value, name: str, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, a scalar filling every entry;
    any other shape is a ``DIMENSION_MISMATCH`` saying ``what`` it holds."""
    x = _array(value, name)
    if x.ndim == 0:
        return np.full(shape, x)
    x = np.array(x, ndmin=len(shape))
    if x.shape != shape:
        got = f"{len(x)} entries" if x.ndim == 1 else f"shape {x.shape}"
        want = shape[0] if len(shape) == 1 else shape
        raise ValidationError(f"{name} has {got}, expected {want} ({what})",
                              code="DIMENSION_MISMATCH")
    return x


def zero_kinetics(n: int = 1, m: int = 1) -> KineticsModel:
    """Inert model: ``f = h = g = 0`` (trivially quasi-positive)."""

    def f(Y, C):
        return np.zeros(np.shape(Y))

    def h(Y, C):
        return np.zeros(np.shape(C))

    return KineticsModel(n=n, m=m, f=f, h=h, g=_species_sum(f), quasi_positive=True)


def linear_preset(A: np.ndarray, c: np.ndarray, B: np.ndarray, d: np.ndarray) -> KineticsModel:
    """Affine kinetics ``f = A Y + c``, ``h = B C + d``, ``g = sum_i f_i``.

    Shapes: ``A (n, n)``, ``c (n,)``, ``B (m, m)``, ``d (m,)``.  Mismatched
    shapes and ragged matrices raise ``DIMENSION_MISMATCH``.
    """
    A, B = np.atleast_2d(_array(A, "A")), np.atleast_2d(_array(B, "B"))
    c, d = np.atleast_1d(_array(c, "c")), np.atleast_1d(_array(d, "d"))
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

    # f = A Y + c >= 0 at every Y >= 0 exactly when c >= 0 (take Y = 0) and
    # A >= 0 (take Y = t e_k, t large); h likewise with B and d
    qp = all(bool(np.all(x >= 0.0)) for x in (A, B, c, d))
    return KineticsModel(n=n, m=m, f=f, h=h, g=_species_sum(f), quasi_positive=qp)


def monod_preset(mu, K, k_d=0.0, limiting=0, yields=0.0, m: int | None = None) -> KineticsModel:
    """Saturation kinetics with optional decay and substrate consumption.

    Growth: ``f_i = (mu_i * C_l / (K_i + C_l) - k_d_i) * Y_i`` with ``l`` the
    species' limiting substrate.  Consumption: ``h_j`` sums
    ``-(1 / yields[i, j]) * mu_i * C_j / (K_i + C_j) * Y_i`` over consuming
    species.  Expansion ``g = sum_i f_i``.

    The parameters are array-likes: ``mu (n,)`` maximum specific growth
    rates, > 0, whose length is ``n``; ``K (n,)`` half-saturation constants,
    > 0; ``k_d (n,)`` decay/maintenance rates, >= 0; ``limiting (n,)`` the
    integer index of the substrate limiting each species' growth; ``yields
    (n, m)`` yield coefficients, where entry ``(i, j) > 0`` means species
    ``i`` consumes substrate ``j`` with that yield and ``0`` no consumption.
    A scalar stands for that value in every entry, so the defaults mean no
    decay, growth limited by substrate 0 and no consumption.  ``m`` defaults
    to the column count of ``yields`` (1 for a scalar).

    Raises
    ------
    ValidationError
        Code ``NONFINITE_INPUT`` for a non-finite ``mu``, ``K``, ``k_d`` or
        yield; ``NONPOSITIVE_PARAM`` for ``mu <= 0``, ``K <= 0``, ``k_d < 0``
        or a negative yield; ``DIMENSION_MISMATCH`` for a parameter of the
        wrong shape, a ragged one, or a limiting index that is not an integer
        in ``[0, m)``.
    """
    n = len(np.atleast_1d(_array(mu, "mu")))
    mu, K, k_d, index = (_shaped(value, name, (n,), "one per species, as mu") for value, name
                         in zip((mu, K, k_d, limiting), ("mu", "K", "k_d", "limiting")))
    if m is None:
        m = np.atleast_2d(_array(yields, "yields")).shape[1]
    yields = _shaped(yields, "yields", (n, m),
                     "one row per species, one column per substrate")
    if not all(np.all(np.isfinite(x)) for x in (mu, K, k_d, yields)):
        raise ValidationError("non-finite Monod parameters", code="NONFINITE_INPUT")
    if np.any(mu <= 0.0) or np.any(K <= 0.0):
        raise ValidationError("mu and K must be > 0", code="NONPOSITIVE_PARAM")
    if np.any(k_d < 0.0):
        raise ValidationError("decay rates must be >= 0", code="NONPOSITIVE_PARAM")
    if np.any(yields < 0.0):
        raise ValidationError(
            "yields must be > 0 for consuming pairs (0 = no consumption)",
            code="NONPOSITIVE_PARAM",
        )
    if not np.all(np.isin(index, np.arange(m))):
        raise ValidationError(f"limiting substrate indices must be integers in [0, {m}), "
                              f"got {np.asarray(limiting).tolist()}",
                              code="DIMENSION_MISMATCH")
    limiting = index.astype(int)

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

    qp = bool(np.all(k_d == 0.0) and not consuming.any())
    return KineticsModel(n=n, m=m, f=f, h=h, g=_species_sum(f), quasi_positive=qp)
