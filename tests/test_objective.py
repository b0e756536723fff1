"""Objective abstraction: evaluation, Taylor remainder, test functions."""

import numpy as np
import pytest

from rankzo.objective import (MonotoneTransform, Objective, evaluate,
                              evaluate_batch, make_quadratic,
                              make_rosenbrock_like, remainder, wrap_monotone)


def half_norm_squared(d):
    return Objective(dim=d, fn=lambda x: 0.5 * float(x @ x),
                     grad=lambda x: x, L=1.0, mu=1.0, f_star=0.0,
                     x_star=np.zeros(d), name="half_norm_sq")


def finite_difference_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


class TestEvaluate:
    def test_quadratic_identity(self):
        obj = half_norm_squared(2)
        assert evaluate(obj, np.array([3.0, 4.0])) == 12.5

    def test_optimum(self):
        obj = half_norm_squared(2)
        assert evaluate(obj, np.zeros(2)) == 0.0

    def test_ill_conditioned_direct(self):
        d_mat = np.diag([1.0, 100.0])
        obj = Objective(dim=2, fn=lambda x: 0.5 * float(x @ d_mat @ x))
        assert evaluate(obj, np.array([1.0, 1.0])) == 50.5

    def test_dimension_mismatch(self):
        obj = half_norm_squared(2)
        with pytest.raises(ValueError):
            evaluate(obj, np.array([1.0, 2.0, 3.0]))

    # the original case, the workloads' batch shapes, and the d = 1 and
    # mu == L branches of make_quadratic
    @pytest.mark.parametrize("m,d,mu,L", [
        (20, 5, 1.0, 10.0), (16, 32, 1.0, 10.0), (16, 128, 1.0, 100.0),
        (16384, 100, 1.0, 10.0), (16, 1, 1.0, 10.0), (16, 8, 3.0, 3.0),
    ], ids=["20x5", "16x32", "16x128", "16384x100", "d1", "mu_eq_L"])
    def test_batch_matches_scalar(self, m, d, mu, L):
        obj = make_quadratic(d, mu, L, seed=1)
        pts = obj.x_star + np.random.default_rng(0).standard_normal((m, d))
        before = pts.copy()
        batch = evaluate_batch(obj, pts)
        np.testing.assert_array_equal(pts, before)
        scalar = np.array([evaluate(obj, p) for p in pts])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)


class TestValidation:
    """Every input check of ``Objective`` and ``evaluate_batch`` fires."""

    @pytest.mark.parametrize("build,message", [
        (lambda: Objective(dim=0, fn=float), "dim must be >= 1, got 0"),
        (lambda: Objective(dim=2, fn=float, L=0.0), "L must be positive, got 0.0"),
        (lambda: Objective(dim=2, fn=float, mu=-1.0),
         "mu must be nonnegative, got -1.0"),
        (lambda: evaluate_batch(half_norm_squared(2), np.zeros(2)),
         "expected shape (m, 2), got (2,)"),
        (lambda: evaluate_batch(half_norm_squared(2), np.zeros((3, 4))),
         "expected shape (m, 2), got (3, 4)"),
    ], ids=["dim", "L", "mu", "batch_1d", "batch_columns"])
    def test_rejected(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


class TestRemainder:
    def test_quadratic_exact_second_order(self):
        obj = half_norm_squared(3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            expected = 0.5 * float((y - x) @ (y - x))
            assert remainder(obj, y, x) == pytest.approx(expected, rel=1e-10)

    def test_identity_case(self):
        obj = half_norm_squared(3)
        x = np.array([1.0, -2.0, 0.5])
        assert remainder(obj, x, x) == 0.0

    def test_quartic_1d(self):
        obj = Objective(dim=1, fn=lambda x: 0.25 * float(x[0] ** 4),
                        grad=lambda x: np.array([x[0] ** 3]))
        # 0.25*1.1^4 - 0.25 - 1*0.1, checked against direct arithmetic
        got = remainder(obj, np.array([1.1]), np.array([1.0]))
        assert got == pytest.approx(0.016025, abs=1e-12)

    def test_missing_gradient(self):
        obj = Objective(dim=1, fn=lambda x: float(x[0]))
        with pytest.raises(ValueError):
            remainder(obj, np.array([1.0]), np.array([0.0]))


def recover_matrix(obj):
    # the quadratic's gradient is linear, so probing unit vectors
    # reconstructs A column by column
    d = obj.dim
    a = np.zeros((d, d))
    g0 = obj.grad(np.zeros(d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        a[:, i] = obj.grad(e) - g0
    return a


class TestMakeQuadratic:
    def test_isotropic_case(self):
        obj = make_quadratic(2, 1.0, 1.0, seed=0)
        a = recover_matrix(obj)
        np.testing.assert_allclose(a, np.eye(2), atol=1e-12)
        assert evaluate(obj, obj.x_star) == pytest.approx(0.0, abs=1e-12)

    def test_spectrum_endpoints_attained(self):
        obj = make_quadratic(4, 1.0, 100.0, seed=3)
        eigs = np.sort(np.linalg.eigvalsh(recover_matrix(obj)))
        assert eigs[0] == pytest.approx(1.0, rel=1e-9)
        assert eigs[-1] == pytest.approx(100.0, rel=1e-9)
        assert np.all(eigs >= 1.0 - 1e-9) and np.all(eigs <= 100.0 + 1e-7)

    def test_gradient_against_finite_differences(self):
        obj = make_quadratic(6, 1.0, 50.0, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal(6)
            fd = finite_difference_grad(obj.fn, x)
            g = obj.grad(x)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    def test_mu_greater_than_L_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic(4, 10.0, 1.0, seed=0)

    @pytest.mark.parametrize("d", [0, -2])
    def test_dimension_below_one_rejected(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
            make_quadratic(d, 1.0, 10.0, seed=0)

    def test_deterministic_in_seed(self):
        a1 = recover_matrix(make_quadratic(5, 1.0, 10.0, seed=9))
        a2 = recover_matrix(make_quadratic(5, 1.0, 10.0, seed=9))
        np.testing.assert_array_equal(a1, a2)

    def test_smoothness_sandwich_on_random_pairs(self):
        # |remainder| <= (L/2)||y-x||^2 with the exact quadratic pattern
        obj = make_quadratic(8, 1.0, 10.0, seed=11)
        a = recover_matrix(obj)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            r = remainder(obj, y, x)
            z = y - x
            assert abs(r) <= 0.5 * obj.L * float(z @ z) * (1 + 1e-9)
            assert r == pytest.approx(0.5 * float(z @ a @ z), rel=1e-8, abs=1e-10)

    def test_pl_inequality(self):
        # gradient-dominance consequence of strong convexity
        obj = make_quadratic(8, 2.0, 20.0, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(1000):
            x = obj.x_star + rng.standard_normal(8)
            lhs = float(obj.grad(x) @ obj.grad(x))
            rhs = 2.0 * obj.mu * (evaluate(obj, x) - obj.f_star)
            assert lhs >= rhs * (1 - 1e-9)


class TestMakeRosenbrockLike:
    def test_known_minimizer(self):
        obj = make_rosenbrock_like(6)
        assert evaluate(obj, np.ones(6)) == 0.0
        assert obj.f_star == 0.0

    def test_gradient_against_finite_differences(self):
        obj = make_rosenbrock_like(8)
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=8)
            fd = finite_difference_grad(obj.fn, x)
            g = obj.grad(x)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    def test_nonnegative_on_samples(self):
        obj = make_rosenbrock_like(10)
        pts = np.random.default_rng(22).uniform(-3, 3, size=(10_000, 10))
        assert np.all(evaluate_batch(obj, pts) >= 0.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_rosenbrock_like(5)

    def test_smoothness_bound_within_cap(self):
        obj = make_rosenbrock_like(4)
        assert obj.L <= 1e4

    def test_recorded_L_dominates_sampled_curvature(self):
        # sampled directional second differences over the declared box
        # stay below the recorded smoothness constant
        obj = make_rosenbrock_like(6)
        rng = np.random.default_rng(23)
        h = 1e-4
        for _ in range(200):
            x = rng.uniform(-2, 2, size=6)
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            second = (obj.fn(x + h * v) - 2 * obj.fn(x) + obj.fn(x - h * v)) / h**2
            assert second <= obj.L * (1 + 1e-4)


class TestWrapMonotone:
    def test_identity_affine(self):
        obj = make_quadratic(3, 1.0, 5.0, seed=2)
        wrapped = wrap_monotone(obj, MonotoneTransform("affine", a=1.0, b=0.0))
        rng = np.random.default_rng(30)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert evaluate(wrapped, x) == evaluate(obj, x)

    def test_exponential_preserves_order(self):
        obj = Objective(dim=1, fn=lambda x: float(x[0]))
        wrapped = wrap_monotone(obj, MonotoneTransform("exponential"))
        vals = [evaluate(wrapped, np.array([v])) for v in (-1.0, 0.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_affine_arithmetic(self):
        obj = Objective(dim=1, fn=lambda x: 0.5 * float(x[0] ** 2))
        wrapped = wrap_monotone(obj, MonotoneTransform("affine", a=3.0, b=7.0))
        assert evaluate(wrapped, np.array([2.0])) == 13.0

    def test_instrumentation_dropped(self):
        obj = make_quadratic(3, 1.0, 5.0, seed=2)
        wrapped = wrap_monotone(obj, MonotoneTransform("exponential"))
        assert wrapped.grad is None and wrapped.L is None
        assert wrapped.mu is None and wrapped.f_star is None
        assert wrapped.dim == obj.dim

    def test_nonincreasing_affine_rejected(self):
        with pytest.raises(ValueError):
            MonotoneTransform("affine", a=-1.0)
        with pytest.raises(ValueError):
            MonotoneTransform("affine", a=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MonotoneTransform("sigmoid")

    @pytest.mark.parametrize("kind,a,b", [
        ("affine", 2.5, -3.0), ("exponential", 1.0, 0.0),
        ("cube_plus_linear", 1.0, 0.0),
    ])
    def test_complete_ordering_preserved(self, kind, a, b):
        obj = make_quadratic(4, 1.0, 10.0, seed=8)
        wrapped = wrap_monotone(obj, MonotoneTransform(kind, a=a, b=b))
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((100, 4))
        base = evaluate_batch(obj, pts)
        mapped = evaluate_batch(wrapped, pts)
        assert np.array_equal(np.argsort(base, kind="stable"),
                              np.argsort(mapped, kind="stable"))
