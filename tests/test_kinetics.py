"""Reaction-law presets and their positivity/shape contracts."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from biofilmfront import (
    KineticsModel,
    ValidationError,
    linear_preset,
    monod_preset,
    zero_kinetics,
)


def _rates(kin, Y, C):
    """``(f, h, g)`` at stacked states ``Y`` (n, K) and ``C`` (m, K)."""
    return kin.f(Y, C), kin.h(Y, C), kin.g(Y, C)


def test_zero_kinetics_vanishes():
    kin = zero_kinetics(2, 3)
    Y = np.ones((2, 5))
    C = np.ones((3, 5))
    f, h, g = _rates(kin, Y, C)
    assert f.shape == (2, 5)
    assert h.shape == (3, 5)
    assert np.all(f == 0.0) and np.all(h == 0.0) and np.all(np.asarray(g) == 0.0)
    assert kin.quasi_positive


def test_kinetics_model_dimension_checked():
    with pytest.raises(ValidationError) as exc:
        KineticsModel(n=0, m=1, f=lambda Y, C: Y, h=lambda Y, C: C, g=lambda Y, C: 0.0)
    assert exc.value.code == "DIMENSION_MISMATCH"


def test_linear_preset_matrix_action():
    A = [[-1.0, 0.5], [0.0, -2.0]]
    c = [0.1, 0.2]
    kin = linear_preset(A, c, [[-1.0]], [0.0])
    Y = np.array([[1.0, 2.0], [3.0, 4.0]])  # two species at two points
    C = np.zeros((1, 2))
    f, h, g = _rates(kin, Y, C)
    expect = np.array(A) @ Y + np.array(c)[:, None]
    assert np.allclose(f, expect)
    assert np.allclose(g, expect.sum(axis=0))


def test_linear_preset_substrate_action():
    B = [[-3.0, 0.5], [0.25, -2.0]]
    d = [0.1, 0.2]
    kin = linear_preset([[-1.0]], [0.0], B, d)
    C = np.array([[1.0, 2.0], [3.0, 4.0]])  # two substrates at two points
    _, h, _ = _rates(kin, np.ones((1, 2)), C)
    assert np.allclose(h, np.array(B) @ C + np.array(d)[:, None])


def test_linear_preset_quasi_positive_iff_coefficients_nonnegative():
    assert not linear_preset([[-1.0]], [0.0], [[0.0]], [0.0]).quasi_positive
    assert linear_preset([[0.0]], [0.0], [[0.0]], [0.0]).quasi_positive


@pytest.mark.parametrize("A,c,B,d,qp", [
    ([[0.0]], [0.5], [[0.0]], [0.0], True),          # equilibrium.yaml's rates
    ([[1.0, 0.5], [0.0, 2.0]], [0.0, 0.1], [[3.0]], [1.0], True),
    ([[1.0, -0.5], [0.0, 2.0]], [0.0, 0.1], [[3.0]], [1.0], False),  # f_0 < 0 at Y = (0, 1)
    ([[0.0]], [-0.5], [[0.0]], [0.0], False),         # f < 0 at Y = 0
    ([[0.0]], [0.0], [[1.0]], [-1e-300], False),      # h < 0 at C = 0
])
def test_linear_preset_nonnegative_affine_rates_are_quasi_positive(A, c, B, d, qp):
    """``f = A Y + c`` and ``h = B C + d`` stay >= 0 at all data >= 0
    exactly when every coefficient is >= 0, and the flag says so."""
    kin = linear_preset(A, c, B, d)
    assert kin.quasi_positive is qp
    # the rates at zero data and at each unit vector, columns of one call each
    n, m = len(c), len(d)
    Y, C = np.hstack((np.zeros((n, 1)), np.eye(n))), np.hstack((np.zeros((m, 1)), np.eye(m)))
    f, h = kin.f(Y, np.zeros((m, n + 1))), kin.h(np.zeros((n, m + 1)), C)
    assert bool(np.all(f >= 0.0) and np.all(h >= 0.0)) is qp


def _monod1():
    return monod_preset(mu=[0.4], K=[0.3], k_d=[0.0], limiting=[0], yields=[[0.5]], m=1)


def test_monod_growth_law_value():
    kin = _monod1()
    Y = np.array([[2.0]])
    C = np.array([[0.3]])  # C == K -> half saturation
    f, h, g = _rates(kin, Y, C)
    assert f[0, 0] == pytest.approx(0.4 * 0.5 * 2.0)
    assert h[0, 0] == pytest.approx(-(1.0 / 0.5) * 0.4 * 0.5 * 2.0)
    assert g[0] == pytest.approx(f[0, 0])


def test_monod_decay_shifts_growth():
    kin = monod_preset(mu=[0.4], K=[0.3], k_d=[0.1], limiting=[0], yields=[[0.5]], m=1)
    f, _, _ = _rates(kin, np.array([[1.0]]), np.array([[0.3]]))
    assert f[0, 0] == pytest.approx((0.4 * 0.5 - 0.1) * 1.0)


def test_monod_zero_yield_means_no_consumption():
    kin = monod_preset(mu=[0.4], K=[0.3], k_d=[0.0], limiting=[0], yields=[[0.0]], m=1)
    _, h, _ = _rates(kin, np.array([[5.0]]), np.array([[1.0]]))
    assert h[0, 0] == 0.0
    assert kin.quasi_positive  # no decay, no consumption


def test_monod_quasi_positive_flag():
    assert _monod1().quasi_positive is False  # consumes substrate
    no_uptake = monod_preset(mu=[0.4], K=[0.3], k_d=[0.0], limiting=[0], yields=[[0.0]], m=1)
    assert no_uptake.quasi_positive is True


@pytest.mark.parametrize(
    "bad",
    [
        dict(mu=[-0.1], K=[0.3], k_d=[0.0], limiting=[0], yields=[[0.5]]),
        dict(mu=[0.4], K=[0.0], k_d=[0.0], limiting=[0], yields=[[0.5]]),
        dict(mu=[0.4], K=[0.3], k_d=[-1.0], limiting=[0], yields=[[0.5]]),
        dict(mu=[0.4], K=[0.3], k_d=[0.0], limiting=[0], yields=[[-0.5]]),
    ],
)
def test_monod_rejects_nonpositive_params(bad):
    with pytest.raises(ValidationError) as exc:
        monod_preset(**bad, m=1)
    assert exc.value.code == "NONPOSITIVE_PARAM"


def test_monod_limiting_index_bounds():
    with pytest.raises(ValidationError):
        monod_preset(mu=[0.4], K=[0.3], k_d=[0.0], limiting=[2], yields=[[0.5]], m=1)


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4),
)
# Y * C underflows to 0 here, but neither vanishes and h is -1e-323
@example([1.3765507748152482e-17] * 4, [1.4908911989944888e-307] * 4)
def test_monod_signs_on_nonnegative_orthant(yvals, cvals):
    """Uptake only removes substrate; growth without decay keeps Y nonnegative."""
    kin = _monod1()
    Y = np.array(yvals).reshape(1, -1)
    C = np.array(cvals).reshape(1, -1)
    f, h, _ = _rates(kin, Y, C)
    assert np.all(h <= 0.0)
    assert np.all(f >= 0.0)  # k_d = 0 here
    # consumption vanishes where either Y or C vanishes
    mask = (Y == 0.0) | (C == 0.0)
    assert np.all(h[mask.reshape(1, -1)] == 0.0)


@pytest.mark.parametrize("limiting,yields", [
    ([0], [[0.08]]),                                  # one species: scalar constants
    ([0, 1], [[0.08, 0.0], [0.1, 0.2]]),              # consecutive: a view of C
    ([1, 0], [[0.08, 0.0], [0.1, 0.2]]),              # not consecutive: an index
    ([0, 0, 1], [[0.08, 0.0], [0.1, 0.2], [0.05, 0.0]]),  # three species eat substrate 0
], ids=["n1", "consecutive", "swapped", "shared"])
def test_monod_rates_match_written_out_formulas_bitwise(limiting, yields):
    """``f`` and ``h`` of the Monod preset equal the formulas of its
    docstring, evaluated row by row in the same order, bit for bit, whether
    ``f`` takes the limiting substrates as a view or by index."""
    n, m = len(limiting), len(yields[0])
    mu, K, k_d = [0.5, 0.3, 0.7][:n], [0.05, 0.1, 0.2][:n], [0.02, 0.01, 0.0][:n]
    kin = monod_preset(mu=mu, K=K, k_d=k_d, limiting=limiting, yields=yields, m=m)
    rng = np.random.default_rng(7)
    Y, C = rng.uniform(0.0, 1.0, (n, 33)), rng.uniform(0.0, 2.0, (m, 33))
    f_want = np.array([(mu[i] * C[l] / (K[i] + C[l]) - k_d[i]) * Y[i]
                       for i, l in enumerate(limiting)])
    h_want = np.zeros((m, 33))
    for i in range(n):            # consuming pairs in species-major order
        for j in range(m):
            if yields[i][j] > 0.0:
                h_want[j] -= mu[i] * C[j] / (K[i] + C[j]) * Y[i] / yields[i][j]
    assert kin.f(Y, C).tobytes() == f_want.tobytes()
    assert kin.h(Y, C).tobytes() == h_want.tobytes()
    assert kin.g(Y, C).tobytes() == f_want.sum(axis=0).tobytes()


def test_monod_defaults_mean_no_decay_substrate_0_and_no_consumption():
    """``k_d``, ``limiting`` and ``yields`` default to 0 for every species,
    sized by ``mu`` and ``m``, with the rates of the written-out zeros."""
    kin = monod_preset(mu=[0.5, 0.3], K=[0.05, 0.1], m=2)
    zeros = monod_preset(mu=[0.5, 0.3], K=[0.05, 0.1], k_d=[0.0, 0.0], limiting=[0, 0],
                         yields=[[0.0, 0.0], [0.0, 0.0]], m=2)
    assert (kin.n, kin.m) == (2, 2) and kin.quasi_positive
    Y, C = np.random.default_rng(3).uniform(0.0, 1.0, (2, 9)), np.full((2, 9), 0.5)
    for got, want in zip(_rates(kin, Y, C), _rates(zeros, Y, C)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad,message", [
    (dict(K=[0.3, 0.3]), "K has 2 entries, expected 1 (one per species, as mu)"),
    (dict(k_d=[0.0, 0.0]), "k_d has 2 entries, expected 1 (one per species, as mu)"),
    (dict(limiting=[0, 0]), "limiting has 2 entries, expected 1 (one per species, as mu)"),
    (dict(yields=[[0.5], [0.5]]),
     "yields has shape (2, 1), expected (1, 1) (one row per species, one column per substrate)"),
    (dict(yields=[[0.5], [0.5, 0.1]]),
     "yields must be a rectangular array of numbers, got [[0.5], [0.5, 0.1]]"),
    (dict(limiting=[0.7]), "limiting substrate indices must be integers in [0, 1), got [0.7]"),
], ids=["K", "k_d", "limiting", "yields", "yields_ragged", "limiting_fraction"])
def test_monod_shape_errors_name_the_parameter(bad, message):
    with pytest.raises(ValidationError) as exc:
        monod_preset(**{"mu": [0.4], "K": [0.3], **bad}, m=1)
    assert exc.value.code == "DIMENSION_MISMATCH"
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [dict(mu=[np.nan]), dict(K=[np.inf]), dict(k_d=[np.nan]),
                                 dict(yields=[[np.inf]])], ids=["mu", "K", "k_d", "yields"])
def test_monod_rejects_nonfinite_params(bad):
    with pytest.raises(ValidationError) as exc:
        monod_preset(**{"mu": [0.4], "K": [0.3], **bad}, m=1)
    assert exc.value.code == "NONFINITE_INPUT"


@pytest.mark.parametrize("name", ["A", "B"])
def test_linear_preset_rejects_a_ragged_matrix(name):
    args = dict(A=[[-1.0, 0.0], [0.0, -1.0]], c=[0.0, 0.0], B=[[-1.0]], d=[0.0])
    args[name] = [[-1.0], [0.0, -1.0]]
    with pytest.raises(ValidationError) as exc:
        linear_preset(**args)
    assert exc.value.code == "DIMENSION_MISMATCH"
    assert str(exc.value) == (f"{name} must be a rectangular array of numbers, "
                              "got [[-1.0], [0.0, -1.0]]")
