"""Unit tests for the competitive-ratio theory (Lemmas 5-9, Theorems 1-8)."""

import math
import random

import pytest

from repro.core.constants import MODEL_FAMILIES, MU_MAX, MU_STAR, X_STAR, delta
from repro.core.ratios import (
    _minimize_bounded,
    algorithm_lower_bound,
    alpha_beta_curve,
    arbitrary_model_lower_bound,
    framework_ratio,
    optimal_x,
    optimize_mu,
    ratio_for_mu,
    table1,
    upper_bound,
)
from repro.exceptions import InvalidParameterError


class TestFrameworkRatio:
    def test_lemma5_formula(self):
        mu, alpha = 0.3, 1.5
        expected = (mu * alpha + 1 - 2 * mu) / (mu * (1 - mu))
        assert framework_ratio(mu, alpha) == pytest.approx(expected)

    def test_roofline_special_case(self):
        """With alpha = 1 the ratio collapses to 1/mu (Theorem 1's proof)."""
        for mu in (0.1, 0.25, 0.38):
            assert framework_ratio(mu, 1.0) == pytest.approx(1.0 / mu)

    def test_increasing_in_alpha(self):
        assert framework_ratio(0.3, 2.0) > framework_ratio(0.3, 1.0)

    def test_rejects_bad_mu(self):
        with pytest.raises(InvalidParameterError):
            framework_ratio(0.6, 1.0)


class TestAlphaBetaCurves:
    def test_roofline_lemma6(self):
        assert alpha_beta_curve("roofline", 123.0) == (1.0, 1.0)

    def test_communication_lemma7(self):
        x = 0.45
        alpha, beta = alpha_beta_curve("communication", x)
        assert alpha == pytest.approx(1 + x * x + x / 3)
        assert beta == pytest.approx(0.6 * (1 / x + x))

    def test_communication_x_range(self):
        lo = (math.sqrt(13) - 1) / 6
        alpha_beta_curve("communication", lo)  # boundary ok
        alpha_beta_curve("communication", 0.5)
        with pytest.raises(InvalidParameterError):
            alpha_beta_curve("communication", lo - 0.01)
        with pytest.raises(InvalidParameterError):
            alpha_beta_curve("communication", 0.51)

    def test_communication_corner_values(self):
        """Lemma 7's Case-1 guardrails: alpha_x >= 4/3 and beta_x >= 3/2."""
        lo = (math.sqrt(13) - 1) / 6
        alpha_lo, _ = alpha_beta_curve("communication", lo)
        _, beta_hi = alpha_beta_curve("communication", 0.5)
        assert alpha_lo == pytest.approx(4 / 3, rel=1e-9)
        assert beta_hi == pytest.approx(3 / 2, rel=1e-9)

    def test_amdahl_lemma8(self):
        alpha, beta = alpha_beta_curve("amdahl", 0.75)
        assert alpha == pytest.approx(1.75)
        assert beta == pytest.approx(1 + 1 / 0.75)

    def test_general_lemma9(self):
        x = 2.0
        alpha, beta = alpha_beta_curve("general", x)
        assert alpha == pytest.approx(1 + 0.5 + 0.25)
        assert beta == pytest.approx(3.5)

    def test_general_requires_x_above_one(self):
        with pytest.raises(InvalidParameterError):
            alpha_beta_curve("general", 1.0)

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            alpha_beta_curve("hyperbolic", 1.0)


class TestOptimalX:
    @pytest.mark.parametrize("family", ["communication", "amdahl", "general"])
    def test_beta_constraint_active(self, family):
        """The optimal x saturates beta_x = delta(mu) (proofs of Thms 2-4)."""
        mu = MU_STAR[family]
        x = optimal_x(family, mu)
        _, beta = alpha_beta_curve(family, x)
        assert beta == pytest.approx(delta(mu), rel=1e-9)

    @pytest.mark.parametrize("family", ["communication", "amdahl", "general"])
    def test_matches_pinned_x_star(self, family):
        assert optimal_x(family, MU_STAR[family]) == pytest.approx(
            X_STAR[family], rel=1e-9
        )

    def test_infeasible_mu_rejected(self):
        # Near MU_MAX, delta -> 1 < 3: no x for the general model.
        with pytest.raises(InvalidParameterError):
            optimal_x("general", 0.38)


class TestTheorems1To4:
    def test_upper_bounds_match_table1(self):
        """Reproduce Table 1's upper-bound row: 2.62 / 3.61 / 4.74 / 5.72."""
        assert upper_bound("roofline") == pytest.approx(2.618034, abs=1e-5)
        assert upper_bound("communication") == pytest.approx(3.6049, abs=2e-3)
        assert upper_bound("amdahl") == pytest.approx(4.7306, abs=2e-3)
        assert upper_bound("general") == pytest.approx(5.7143, abs=2e-3)

    def test_upper_bounds_round_to_paper(self):
        paper = {"roofline": 2.62, "communication": 3.61, "amdahl": 4.74, "general": 5.72}
        for family, printed in paper.items():
            # Paper rounds up ("at most"), so ours must be <= printed + rounding.
            assert upper_bound(family) <= printed + 0.005

    def test_optimizer_recovers_pinned_mu(self):
        for family in MODEL_FAMILIES:
            assert optimize_mu(family).mu == pytest.approx(MU_STAR[family], abs=1e-6)

    def test_optimum_no_worse_than_neighbors(self):
        def safe_ratio(family, mu):
            try:
                return ratio_for_mu(family, mu)
            except InvalidParameterError:
                return math.inf  # infeasible mu: the x-constraint has no solution

        for family in ("communication", "amdahl", "general"):
            mu = MU_STAR[family]
            best = ratio_for_mu(family, mu)
            assert best <= safe_ratio(family, mu * 0.95) + 1e-9
            assert best <= safe_ratio(family, min(mu * 1.05, 0.3819)) + 1e-9

    def test_roofline_closed_form(self):
        opt = optimize_mu("roofline")
        assert opt.ratio == pytest.approx((3 + math.sqrt(5)) / 2)
        assert opt.alpha == 1.0 and opt.beta == 1.0

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            optimize_mu("bizarre")


class TestTheorems5To8:
    def test_lower_bounds_match_table1(self):
        """Reproduce Table 1's lower-bound row: 2.61 / 3.51 / 4.73 / 5.25."""
        assert algorithm_lower_bound("roofline") > 2.61
        assert algorithm_lower_bound("communication") > 3.51
        assert algorithm_lower_bound("amdahl") > 4.73
        assert algorithm_lower_bound("general") > 5.25

    def test_lower_bounds_below_upper_bounds(self):
        for family in MODEL_FAMILIES:
            assert algorithm_lower_bound(family) <= upper_bound(family) + 1e-9

    def test_amdahl_bound_formula(self):
        """Theorem 7: delta/((delta-1)(1-mu)) + delta."""
        mu = MU_STAR["amdahl"]
        d = delta(mu)
        assert algorithm_lower_bound("amdahl") == pytest.approx(
            d / ((d - 1) * (1 - mu)) + d
        )


class TestTheorem9:
    def test_bound_values(self):
        # ln(4) - ln(2) - 1/2 for ell = 2.
        assert arbitrary_model_lower_bound(2) == pytest.approx(
            math.log(4) - math.log(2) - 0.5
        )

    def test_grows_logarithmically(self):
        values = [arbitrary_model_lower_bound(ell) for ell in (2, 3, 4, 5)]
        assert all(b > a for a, b in zip(values, values[1:], strict=False))
        # Doubling ell roughly adds ln(2^(2^ell)) ... growth is Theta(2^ell * 0 + ...)
        # concretely: ln(K) dominates, K = 2^ell.
        assert values[-1] > math.log(2**5) - math.log(5) - 1  # sanity

    def test_requires_ell_above_one(self):
        with pytest.raises(InvalidParameterError):
            arbitrary_model_lower_bound(1)


class TestTable1:
    def test_rows(self):
        rows = table1()
        assert [r[0] for r in rows] == list(MODEL_FAMILIES)
        for _, ub, lb in rows:
            assert lb <= ub + 1e-9


class TestBoundedMinimizerParity:
    """``_minimize_bounded`` is a port of scipy's bounded Brent, bit for bit."""

    @staticmethod
    def _problems(seed, n):
        rng = random.Random(seed)
        for i in range(n):
            lo = rng.uniform(-5.0, 5.0)
            hi = lo + rng.uniform(1e-3, 10.0)
            xatol = 10.0 ** rng.uniform(-13.0, -2.0)
            c = rng.uniform(lo, hi)
            w = rng.uniform(0.1, 5.0)
            kind = i % 3
            if kind == 0:
                yield lo, hi, xatol, lambda x, c=c, w=w: w * (x - c) ** 2
            elif kind == 1:
                yield lo, hi, xatol, lambda x, c=c, w=w: math.sin(w * x + c)
            else:
                # optimize_mu's shape: smooth inside, a 1e12 penalty past a cut.
                cut = rng.uniform(lo, hi)
                yield lo, hi, xatol, lambda x, c=c, cut=cut: (
                    1e12 if x > cut else (x - c) ** 2
                )

    def test_matches_scipy_bit_for_bit(self):
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        for lo, hi, xatol, func in self._problems(seed=20220829, n=600):
            ours = _minimize_bounded(func, lo, hi, xatol)
            ref = minimize_scalar(
                func, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
            ).x
            assert ours == ref, (lo, hi, xatol, ours.hex(), float(ref).hex())

    @pytest.mark.parametrize("family", ["communication", "amdahl", "general"])
    @pytest.mark.parametrize("xatol", [1e-12, 1e-8, 1e-5, 1e-3])
    def test_optimize_mu_matches_scipy(self, family, xatol):
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar

        def objective(mu):
            try:
                return ratio_for_mu(family, mu)
            except InvalidParameterError:
                return 1e12

        ref = minimize_scalar(
            objective,
            bounds=(1e-6, MU_MAX - 1e-12),
            method="bounded",
            options={"xatol": xatol},
        ).x
        assert optimize_mu(family, xatol=xatol).mu == ref

    @pytest.mark.parametrize(
        "family, mu_hex, ratio_hex",
        [
            ("roofline", "0x1.8722191a02d60p-2", "0x1.4f1bbcdcbfa55p+1"),
            ("communication", "0x1.4b4234fe6e2a5p-2", "0x1.cd6da9beb8c05p+1"),
            ("amdahl", "0x1.156042a241b6dp-2", "0x1.2ec1c5c776395p+2"),
            ("general", "0x1.af7ca08d22af4p-3", "0x1.6db746bc4f510p+2"),
        ],
    )
    def test_table1_optimum_pinned(self, family, mu_hex, ratio_hex):
        res = optimize_mu(family, xatol=1e-12)
        assert res.mu.hex() == mu_hex
        assert res.ratio.hex() == ratio_hex

    def test_respects_maxfun(self):
        calls = []

        def func(x):
            calls.append(x)
            return math.sin(x)

        _minimize_bounded(func, 0.0, 100.0, 1e-13, maxfun=7)
        assert len(calls) == 7
        assert all(0.0 <= x <= 100.0 for x in calls)
