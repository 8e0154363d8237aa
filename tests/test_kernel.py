import numpy as np
import pytest

from impulsebvp.kernel import boundary_weight_sup, green, kernel_weight_sup


def test_green_branch_values():
    assert green(1.0, 2.0) == -1.0   # t <= s branch gives -t
    assert green(3.0, 1.0) == -1.0   # s <= t branch gives -s
    assert green(2.0, 2.0) == -2.0   # both branches agree at t = s
    for s in (0.0, 0.3, 7.0):
        assert green(0.0, s) == 0.0


def test_green_matches_min_formula_on_grid():
    t = np.linspace(0.0, 50.0, 200)
    s = np.linspace(0.0, 50.0, 200)
    T, S = np.meshgrid(t, s)
    assert np.array_equal(green(T, S), -np.minimum(T, S))


def test_green_symmetry_and_domain():
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 100, 500)
    s = rng.uniform(0, 100, 500)
    assert np.array_equal(green(t, s), green(s, t))
    with pytest.raises(ValueError):
        green(-0.1, 1.0)
    with pytest.raises(ValueError):
        green(1.0, -2.0)


def test_green_piecewise_linear_single_kink():
    # slope -1 below s, slope 0 above s, change exactly at t = s
    s = 3.7
    eps = 1e-6
    below = (green(s - eps, s) - green(s - 2 * eps, s)) / eps
    above = (green(s + 2 * eps, s) - green(s + eps, s)) / eps
    assert below == pytest.approx(-1.0, abs=1e-9)
    assert above == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("s,expected", [(0.0, 0.0), (1.0, 0.5)])
def test_kernel_weight_closed_form(s, expected):
    assert kernel_weight_sup(s) == pytest.approx(expected, abs=1e-15)


def test_kernel_weight_below_one_and_domain():
    s = np.linspace(0.0, 1e6, 1000)
    q = kernel_weight_sup(s)
    assert np.all(q >= 0.0) and np.all(q < 1.0)
    with pytest.raises(ValueError):
        kernel_weight_sup(-1.0)


def test_kernel_weight_matches_brute_force_scan():
    # independent oracle: maximize |G(t,s)|/(1+t) over a fine t-grid;
    # the s values sit on the grid so the scan reaches the true maximizer
    tgrid = np.linspace(0.0, 60.0, 100001)
    for s in tgrid[2000:50000:2000]:
        brute = np.max(np.minimum(tgrid, s) / (1.0 + tgrid))
        assert kernel_weight_sup(s) == pytest.approx(brute, abs=1e-6)


@pytest.mark.parametrize("a,b,expected", [(2.0, 0.0, 2.0), (0.0, 0.0, 0.0),
                                          (0.0, 1.0, 1.0), (-3.0, 1.5, 3.0)])
def test_boundary_weight_closed_form(a, b, expected):
    assert boundary_weight_sup(a, b) == expected


def test_boundary_weight_matches_brute_force_scan():
    tgrid = np.linspace(0.0, 1e4, 400001)
    rng = np.random.default_rng(1)
    for a, b in rng.uniform(-5, 5, size=(10, 2)):
        brute = np.max((abs(a) + abs(b) * tgrid) / (1.0 + tgrid))
        # the sup may only be approached as t -> inf; the scan reaches it
        # to within |b|/(1+tmax)
        assert boundary_weight_sup(a, b) >= brute - 1e-10
        assert boundary_weight_sup(a, b) <= brute + abs(b) / (1.0 + tgrid[-1]) + 1e-10


def test_kernel_integral_identity_oracle():
    # integral_0^inf G(t,s) e^{-s} ds = -(1 - e^{-t}), checked by quadrature
    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(20)
    for t in (0.5, 1.0, 2.0, 10.0):
        total = 0.0
        edges = np.linspace(0.0, 60.0, 241)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            s = mid + half * xg
            total += float(np.sum(half * wg * green(t, s) * np.exp(-s)))
        assert total == pytest.approx(-(1.0 - np.exp(-t)), abs=1e-10)


@pytest.mark.parametrize("call", [lambda: green(np.nan, 1.0), lambda: green(1.0, np.nan),
                                  lambda: green(np.array([0.5, np.nan]), 1.0),
                                  lambda: kernel_weight_sup(np.nan),
                                  lambda: kernel_weight_sup(np.array([1.0, np.nan]))],
                         ids=["green-t", "green-s", "green-array", "weight", "weight-array"])
def test_nan_arguments_are_rejected(call):
    with pytest.raises(ValueError):
        call()
