import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from proxsamp import (
    ChainConfig,
    MomentEstimate,
    Potential,
    ProxObjective,
    RegularizedTarget,
    SmoothnessProfile,
    default_zoo,
    make_gaussian,
    make_hinge_sum,
    make_l1,
    make_power_norm,
    make_quad_plus_l1,
    prox_bundle,
    select_mu,
    select_num_iters,
    validate_profile,
)
from proxsamp.potentials import (
    ZOO_NAMES,
    _finite_real,
    _integer_at_least,
    _zoo_hinge_planes,
    make_by_name,
    positively_spans,
    sample_in_ball,
    takes_rows,
    value_rows,
)


def grid_prox_oracle(f, eta, y, lo=-4.0, hi=4.0, step=1e-4):
    """Brute-force 1D prox by scanning a fine grid."""
    u = np.arange(lo, hi + step, step)
    vals = [f(np.array([ui])) + (ui - y) ** 2 / (2 * eta) for ui in u]
    return u[int(np.argmin(vals))]


class TestRegularizedTarget:
    def test_value_mu_zero_reduces_to_f(self):
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1))
        assert t.value(np.array([-2.0])) == pytest.approx(2.0)

    def test_mu_zero_value_is_f_where_the_regularizer_overflows(self):
        # 0.5 * 0 * ||x - center||^2 read nan, with an overflow warning, once
        # the squared distance overflowed; at mu = 0 the target is f
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1))
        with np.errstate(all="raise"):
            assert t.value([1e200]) == 1e200

    def test_mu_zero_subgrad_is_f_subgrad_where_x_minus_center_overflows(self):
        # 0 * (x - center) read nan, with overflow and invalid-value warnings,
        # once x - center overflowed; at mu = 0 the subgradient is f's
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, [-1e308])
        with np.errstate(all="raise"):
            assert t.value([1e308]) == 1e308
            assert t.subgrad([1e308]).tolist() == [1.0]

    def test_value_direct_formula(self):
        t = RegularizedTarget(make_l1(1, 1.0), 2.0, np.zeros(1))
        assert t.value(np.array([1.0])) == pytest.approx(2.0)

    def test_value_2d(self):
        t = RegularizedTarget(make_l1(2, 1.0), 1.0, np.array([1.0, 0.0]))
        assert t.value(np.array([0.0, 0.0])) == pytest.approx(0.5)

    def test_subgrad_sign(self):
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1))
        assert t.subgrad(np.array([3.0]))[0] == pytest.approx(1.0)

    def test_subgrad_kink_zero_rule(self):
        t = RegularizedTarget(make_l1(1, 1.0), 0.0, np.zeros(1))
        assert t.subgrad(np.array([0.0]))[0] == 0.0

    def test_subgrad_sum_rule(self):
        t = RegularizedTarget(make_l1(1, 1.0), 1.0, np.zeros(1))
        assert t.subgrad(np.array([-2.0]))[0] == pytest.approx(-3.0)

    @pytest.mark.parametrize("mu,center", [(math.inf, 0.0), (math.nan, 0.0), (0.0, math.inf), (0.1, math.nan)])
    def test_non_finite_weight_or_center_rejected(self, mu, center):
        # an infinite centre used to cost a million rejected proposals in
        # exact mode, and mu = inf a zero curvature step
        with pytest.raises(ValueError, match="must be finite"):
            RegularizedTarget(make_l1(1, 1.0), mu, np.array([center]))

    def test_dimension_mismatch(self):
        t = RegularizedTarget(make_l1(2, 1.0), 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            t.value(np.array([1.0]))
        with pytest.raises(ValueError):
            t.subgrad(np.array([1.0, 2.0, 3.0]))


class TestValidateProfile:
    def test_l1_declared_profile_passes(self):
        rng = np.random.default_rng(0)
        rep = validate_profile(make_l1(1, 1.0), 500, 10.0, rng)
        assert rep.passed

    def test_quadratic_correct_l_one_passes(self):
        rng = np.random.default_rng(1)
        rep = validate_profile(make_gaussian(2, (1.0, 1.0)), 500, 10.0, rng)
        assert rep.passed

    def test_quadratic_understated_l_one_fails(self):
        # ||x||^2/2 declared with half its true Lipschitz constant
        bad = Potential(
            dim=2,
            value=lambda x: 0.5 * float(x @ x),
            subgrad=lambda x: np.asarray(x, dtype=float),
            profile=SmoothnessProfile(alpha=1.0, l_alpha=0.0, l_one=0.5),
        )
        rng = np.random.default_rng(2)
        rep = validate_profile(bad, 2000, 10.0, rng)
        assert not rep.passed
        # violation is exactly half the pair distance at the worst pair
        assert rep.max_smoothness_violation == pytest.approx(
            0.5 * rep.worst_pair_dist, rel=1e-12
        )

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_zoo_profiles_pass_at_scale(self, name):
        pot = default_zoo(3)[name]
        rng = np.random.default_rng(42)
        rep = validate_profile(pot, 10_000, 10.0, rng)
        assert rep.passed, rep
        assert rep.max_convexity_violation <= 1e-10


class TestZoo:
    def test_soft_threshold_example(self):
        f = make_l1(1, 1.0)
        z = f.prox(0.5, np.array([2.0]))
        assert z[0] == pytest.approx(1.5)
        assert z[0] == pytest.approx(grid_prox_oracle(f.value, 0.5, 2.0), abs=1e-4)

    def test_power_norm_value(self):
        assert make_power_norm(1, 1.0, 1.0).value(np.array([3.0])) == pytest.approx(4.5)

    def test_gaussian_prox_example(self):
        z = make_gaussian(2, (1.0, 1.0)).prox(1.0, np.array([2.0, 0.0]))
        np.testing.assert_allclose(z, [1.0, 0.0])

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_power_norm_prox_matches_grid(self, alpha):
        f = make_power_norm(1, alpha, 1.3)
        for y, eta in [(2.0, 0.5), (-1.2, 0.8), (0.3, 2.0)]:
            z = f.prox(eta, np.array([y]))
            assert z[0] == pytest.approx(grid_prox_oracle(f.value, eta, y), abs=2e-4)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("y", [[1e300], [1e200, -1e200]], ids=["d1", "d2"])
    def test_power_norm_prox_far_from_the_origin(self, alpha, y):
        # ||y||^2 overflows past ||y|| ~ 1.34e154: the prox radius is
        # rescaled there, so the prox stays finite and on the ray of y
        y = np.array(y)
        z = make_power_norm(len(y), alpha).prox(0.5, y)
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z, y, rtol=1e-12)

    def test_quad_plus_l1_prox_matches_grid(self):
        f = make_quad_plus_l1(1, (2.0,), 1.5)
        for y, eta in [(2.0, 0.5), (-3.0, 0.25), (0.4, 1.0)]:
            z = f.prox(eta, np.array([y]))
            assert z[0] == pytest.approx(grid_prox_oracle(f.value, eta, y), abs=2e-4)

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "gaussian"])
    def test_prox_stationarity(self, name):
        # (y - z)/eta must be a subgradient at z = prox(eta, y):
        # f(w) >= f(z) + <(y - z)/eta, w - z> for sampled w
        pot = default_zoo(3)[name]
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.standard_normal(3) * 3.0
            eta = rng.uniform(0.1, 2.0)
            z = pot.prox(eta, y)
            fz = pot.value(z)
            g = (y - z) / eta
            for _ in range(100):
                w = sample_in_ball(rng, 3, 5.0)
                assert pot.value(w) >= fz + g @ (w - z) - 1e-8

    def test_hinge_value_and_subgrad(self):
        f = make_hinge_sum(2, [((1.0, 0.0), -1.0), ((0.0, 1.0), 0.5)])
        assert f.value(np.array([2.0, 0.0])) == pytest.approx(1.5)
        np.testing.assert_allclose(f.subgrad(np.array([2.0, 0.0])), [1.0, 1.0])
        # both hinges inactive
        assert f.value(np.array([0.0, -1.0])) == pytest.approx(0.0)

    def test_zoo_hinge_coordinate_moments(self):
        # each rotated coordinate has density exp(-max(0, |t| - 1/2)) / 3
        from scipy.integrate import quad

        pieces = ((-math.inf, -0.5), (-0.5, 0.5), (0.5, math.inf))

        def integral(k):
            return sum(quad(lambda t: t**k * math.exp(-max(0.0, abs(t) - 0.5)), a, b)[0] for a, b in pieces)

        assert integral(0) == pytest.approx(3.0, rel=1e-10)
        assert integral(2) / 3.0 == pytest.approx(79 / 36, rel=1e-10)
        assert integral(4) / 3.0 == pytest.approx(6331 / 240, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_zoo_hinge_planes(self, d):
        # (+-q_i, -1/2) with orthonormal q_i: f = sum_i max(0, |<q_i, x>| - 1/2)
        normals = np.stack([a for a, _ in _zoo_hinge_planes(d)])
        q = normals[::2]
        np.testing.assert_allclose(normals[1::2], -q)
        np.testing.assert_allclose(q @ q.T, np.eye(d), atol=1e-12)
        assert positively_spans(normals)
        x = np.random.default_rng(d).standard_normal(d) * 2.0
        expected = np.maximum(np.abs(q @ x) - 0.5, 0.0).sum()
        assert default_zoo(d)["hinge_sum"].value(x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-73, 1e-9, 1.0, 1e9, 1e300])
    def test_positive_span_ignores_scale(self, scale):
        # a lone normal spans no line and +-e_1 do; once a solver tolerance
        # decided it for normals of size 1e-9
        assert not positively_spans(np.array([[scale]]))
        assert positively_spans(np.array([[scale], [-scale]]))
        assert not positively_spans(np.array([[scale, 0.0], [-scale, 0.0], [0.0, scale]]))
        assert positively_spans(np.array([[scale, 0.0], [-1.0, 0.0], [0.0, scale], [0.0, -1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_zoo_hinge_profile_is_subgradient_diameter(self, d):
        # subgradients sum_i s_i q_i, s_i in {-1, 0, 1}: diameter 2 sqrt(d),
        # reached between +-2 sum_i q_i, where every hinge is active
        pot = default_zoo(d)["hinge_sum"]
        assert pot.profile.alpha == 0.0
        assert pot.profile.l_alpha == 2.0 * math.sqrt(d)
        q = np.stack([a for a, _ in _zoo_hinge_planes(d)])[::2]
        x = 2.0 * q.sum(axis=0)
        spread = np.linalg.norm(pot.subgrad(x) - pot.subgrad(-x))
        assert spread == pytest.approx(pot.profile.l_alpha, rel=1e-12)
        rep = validate_profile(pot, 2000, 10.0, np.random.default_rng(d))
        assert rep.passed, rep

    def test_make_by_name_rejects_improper_hinge_sets(self):
        quadrant = [((1.0, 0.0), -0.5), ((0.0, 1.0), -0.5)]
        line = [((1.0, 0.0), -0.5), ((-1.0, 0.0), -0.5)]  # a zero sum, but rank 1
        for planes in (quadrant, line):
            with pytest.raises(ValueError, match="positively span"):
                make_by_name("hinge_sum", 2, {"planes": planes})
        pot = make_by_name("hinge_sum", 2, {"planes": quadrant + [((-1.0, -1.0), -0.5)]})
        assert pot.value(np.array([1.0, -1.0])) == pytest.approx(0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            make_l1(2, -1.0)
        with pytest.raises(ValueError):
            make_power_norm(2, 1.5)
        with pytest.raises(ValueError):
            make_gaussian(2, (1.0, -1.0))
        with pytest.raises(ValueError):
            make_quad_plus_l1(2, (1.0,), 1.0)
        with pytest.raises(ValueError):
            make_hinge_sum(2, [])

    def test_make_by_name_unknown(self):
        with pytest.raises(ValueError, match="available"):
            make_by_name("not_a_potential", 2, {})

    # every param each family reads, at d = 2
    FAMILY_PARAMS = {
        "l1": {"scale": 2.0},
        "power_norm": {"alpha": 0.5, "c": 2.0},
        "quad_plus_l1": {"q_diagonal": [1.0, 2.0], "scale": 0.5},
        "hinge_sum": {"planes": [[[s * v for v in e], -0.5] for e in ([1.0, 0.0], [0.0, 1.0]) for s in (1.0, -1.0)]},
        "gaussian": {"diag_precision": [1.0, 2.0]},
    }

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_make_by_name_refuses_unknown_params(self, name):
        params = dict(self.FAMILY_PARAMS[name])
        assert make_by_name(name, 2, params).name == name
        reads = ", ".join(params)
        with pytest.raises(ValueError, match=rf"unknown params \['sacle'\] for '{name}'; it reads {reads}$"):
            make_by_name(name, 2, {**params, "sacle": 5.0})

    def test_make_by_name_defaults_optional_params(self):
        pot = make_by_name("power_norm", 20, {"alpha": 0.5})
        assert (pot.dim, pot.profile.alpha, pot.profile.l_alpha) == (20, 0.5, 2.0**0.5)
        assert make_by_name("l1", 1, {}).profile.l_alpha == 2.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SmoothnessProfile(alpha=1.5, l_alpha=1.0)
        with pytest.raises(ValueError):
            SmoothnessProfile(alpha=0.5, l_alpha=-1.0)

    @pytest.mark.parametrize("params", [["scale"], "scale", None])
    def test_make_by_name_refuses_params_that_are_not_a_dict(self, params):
        with pytest.raises(ValueError, match=r"params must be a dict \(a JSON object\), got"):
            make_by_name("l1", 1, params)


def _moments(m4=1.0):
    return MomentEstimate(m4=m4, x_min=(0.0,), dist_sq=0.0)


class TestNumberRules:
    """Every real input passes ``_finite_real`` and every integer input
    ``_integer_at_least``, so each refusal names its input in one format."""

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_real_rule_refuses_non_finite_and_floor(self, x):
        with pytest.raises(ValueError, match=rf"^eta must be finite and > 0, got {x}$"):
            _finite_real(x, "eta")
        if x == 0.0:
            assert _finite_real(x, "mu", strict=False) == 0.0
        else:
            with pytest.raises(ValueError, match=rf"^mu must be finite and >= 0, got {x}$"):
                _finite_real(x, "mu", strict=False)

    @pytest.mark.parametrize(
        "x, message",
        [(2.5, "dim must be an integer, got 2.5"), (True, "dim must be an integer, got True"),
         ("2", "dim must be an integer, got '2'"), (None, "dim must be an integer, got None"),
         (math.nan, "dim must be an integer, got nan"), (0, "dim must be >= 1, got 0")],
        ids=["fraction", "bool", "string", "none", "nan", "zero"],
    )
    def test_integer_rule_refuses(self, x, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            _integer_at_least(x, "dim", 1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: select_mu(math.nan, _moments()), "eps must be finite and > 0, got nan"),
            (lambda: select_mu(math.inf, _moments()), "eps must be finite and > 0, got inf"),
            (lambda: select_num_iters(eps=math.nan, eta=0.1, mu=0.0), "eps must be finite and > 0, got nan"),
            (lambda: select_num_iters(eps=0.2, eta=math.inf, mu=0.0), "eta must be finite and > 0, got inf"),
            (lambda: select_num_iters(eps=0.2, eta=0.1, mu=0.1, h0=math.nan), "h0 must be finite and >= 0, got nan"),
            (lambda: select_num_iters(eps=0.2, eta=0.1, mu=0.0, w2sq=-1.0), "w2sq must be finite and >= 0, got -1.0"),
            (lambda: select_num_iters(eps=0.2, eta=0.1, mu=0.0, d=0), "d must be >= 1, got 0"),
            (lambda: SmoothnessProfile(0.5, math.nan), "l_alpha must be finite and >= 0, got nan"),
            (lambda: SmoothnessProfile(0.5, 1.0, lambda_strong=math.inf), "lambda_strong must be finite"),
            (lambda: make_l1(1, math.inf), "scale must be finite and > 0, got inf"),
            (lambda: make_power_norm(2, 0.5, c=math.nan), "c must be finite and > 0, got nan"),
            (lambda: make_gaussian(2, [1.0, math.nan]), r"diag_precision must be finite, got \[1.0, nan\]"),
            (lambda: make_gaussian(2, [1.0, 0.0]), "diag_precision must be finite and > 0, got 0.0"),
            (lambda: make_quad_plus_l1(2, [math.nan, 1.0]), r"q_diagonal must be finite, got \[nan, 1.0\]"),
            (lambda: make_quad_plus_l1(2, [-1.0, 1.0]), "q_diagonal must be finite and >= 0, got -1.0"),
            (lambda: _moments(m4=math.nan), "m4 must be finite and >= 0, got nan"),
            (lambda: Potential(2.5, abs, abs, SmoothnessProfile(0.0, 1.0)), "dim must be an integer, got 2.5"),
            (lambda: Potential(True, abs, abs, SmoothnessProfile(0.0, 1.0)), "dim must be an integer, got True"),
            (
                lambda: ChainConfig(eta=0.0625, delta=1.0, mu=0.0, center_x0=(0.0,), n_iters=2.5, seed=0),
                "n_iters must be an integer, got 2.5",
            ),
            (
                lambda: prox_bundle(ProxObjective(RegularizedTarget(make_l1(1), 0.0, [0.0]), 0.5, [1.0]), 1.0, max_iter=2.5),
                "max_iter must be an integer, got 2.5",
            ),
            (lambda: validate_profile(make_l1(1), 0, 1.0, np.random.default_rng(0)), "n_pairs must be >= 1, got 0"),
        ],
        ids=[
            "select_mu-nan", "select_mu-inf", "num_iters-eps", "num_iters-eta", "num_iters-h0",
            "num_iters-w2sq", "num_iters-d", "profile-l_alpha",
            "profile-lambda", "l1-scale", "power_norm-c", "gaussian-nan", "gaussian-zero",
            "quad_plus_l1-nan", "quad_plus_l1-negative", "m4", "dim-fraction", "dim-bool",
            "n_iters", "max_iter", "n_pairs",
        ],
    )
    def test_each_input_is_refused_by_name(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def probe_rows(dim: int) -> np.ndarray:
    """Seeded rows at magnitudes 1e-3 to 1e3, plus exact kinks: a zero row,
    rows with coordinates at 0, and rows on the zoo hinge planes'
    |<q_i, x>| = 1/2."""
    rng = np.random.default_rng(100 + dim)
    rows = [m * rng.standard_normal((40, dim)) for m in np.logspace(-3.0, 3.0, 13)]
    rows.append(np.zeros((1, dim)))
    sparse = rng.standard_normal((20, dim))
    sparse[:10, ::2] = 0.0
    sparse[10:, 1::2] = 0.0
    rows.append(sparse)
    q = np.array([a for a, _ in _zoo_hinge_planes(dim)[::2]])
    signs = rng.choice([-0.5, 0.5], size=(20, dim))
    rows += [0.5 * q, -0.5 * q, signs @ q]
    return np.concatenate(rows)


class TestRowValues:
    @pytest.mark.parametrize("dim", [1, 2, 5, 20])
    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    def test_values_equal_value_bit_for_bit(self, name, dim):
        xs = probe_rows(dim)
        pots = [default_zoo(dim)[name]]
        if name == "power_norm":
            pots += [make_power_norm(dim, 0.0, 2.0), make_power_norm(dim, 1.0)]
        for pot in pots:
            got = pot.value(xs)
            assert got.shape == (len(xs),)
            # ==, not approx: A6 evaluates rows and must see the scalar oracle's numbers
            assert got.tolist() == [float(pot.value(x)) for x in xs]

    @pytest.mark.parametrize("name", ["l1", "power_norm", "quad_plus_l1", "hinge_sum", "gaussian"])
    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_regularized_and_objective_rows_equal_points(self, name, mu):
        dim = 3
        xs = probe_rows(dim)
        target = RegularizedTarget(default_zoo(dim)[name], mu, np.linspace(-0.5, 0.5, dim))
        obj = ProxObjective(target, 0.3, np.array([1.0, -2.0, 0.5]))
        for value in (target.value, obj.value):
            assert value.takes_rows
            got = value(xs)
            assert got.shape == (len(xs),)
            assert got.tolist() == [value(x) for x in xs]

    @pytest.mark.parametrize("mu", [0.0, 0.4])
    def test_regularized_rows_where_the_regularizer_overflows(self, mu):
        # ||x - center||^2 overflows: skipped at mu = 0 (finite values), inf
        # at mu = 0.4, on points and rows alike
        target = RegularizedTarget(make_l1(2, 1.0), mu, np.array([1e200, 0.0]))
        xs = np.array([[0.0, 0.0], [1.0, -2.0], [1e200, 0.5]])
        with np.errstate(over="ignore"):
            points = [target.value(x) for x in xs]
            rows = target.value(xs)
        assert rows.tolist() == points
        assert points == ([0.0, 3.0, 1e200] if mu == 0.0 else [math.inf, math.inf, 1e200])

    def test_replacing_value_drops_the_row_form(self):
        l1 = make_l1(2, 1.0)
        calls = []

        def plain(x):
            calls.append(x.shape)
            return l1.value(x)

        pot = replace(l1, value=plain)
        assert l1.value.takes_rows and not hasattr(pot.value, "takes_rows")
        xs = probe_rows(2)[:5]
        assert value_rows(pot.value, xs).tolist() == l1.value(xs).tolist()
        assert calls == [(2,)] * 5
        marked = replace(l1, value=takes_rows(plain))
        calls.clear()
        assert value_rows(marked.value, xs).tolist() == l1.value(xs).tolist()
        assert calls == [(5, 2)]

    def test_point_or_rows_shape_is_checked(self):
        target = RegularizedTarget(make_l1(2, 1.0), 0.1, np.zeros(2))
        obj = ProxObjective(target, 0.3, np.zeros(2))
        for value in (target.value, obj.value):
            for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
                with pytest.raises(ValueError, match="expected \\(2,\\) or \\(n, 2\\)"):
                    value(bad)


class TestGaussianTinyPrecision:
    def test_fourth_moment_overflows_without_warnings(self):
        # variances of 1e200 overflow the fourth moment to inf: no numpy
        # warning while building, and the mu rule refuses the value
        from proxsamp.chain import moment_estimate

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pot = make_gaussian(1, [1e-200])
        assert pot.fourth_moment == math.inf
        with pytest.raises(ValueError, match="leaves float range"):
            moment_estimate(pot)
