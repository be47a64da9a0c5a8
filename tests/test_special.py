"""Special functions against independent references and their identities,
and the package's two folds against the plain left-to-right loop."""

import ast
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc

import scool
from scool.special import (
    digamma,
    fold_last,
    fold_sum,
    log_gamma,
    sigmoid_tempered,
    softmax_tempered,
    xlogx,
)

EULER = 0.5772156649015329  # mpmath.digamma(1), 16 digits


class TestDigamma:
    def test_reference_value_at_one(self):
        # frozen from mpmath.digamma(1) at 30 digits
        assert abs(digamma(1.0) - (-0.5772156649015329)) < 1e-9

    def test_reference_value_at_two(self):
        assert abs(digamma(2.0) - (1.0 - EULER)) < 1e-9

    def test_recurrence(self):
        for x in (0.5, 2.0, 10.0):
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10

    def test_recurrence_random_sweep(self):
        rng = np.random.default_rng(0)
        xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
        lhs = digamma(xs + 1.0) - digamma(xs)
        np.testing.assert_allclose(lhs, 1.0 / xs, atol=1e-9, rtol=0)

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))
        np.testing.assert_allclose(digamma(xs), sc.digamma(xs), atol=1e-10, rtol=1e-12)

    def test_against_mpmath_spotchecks(self):
        mp.mp.dps = 30
        for x in (1e-3, 0.37, 1.0, 5.5, 11.0, 250.0):
            assert abs(digamma(x) - float(mp.digamma(x))) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.5)


class TestLogGamma:
    def test_gamma_of_one_is_zero(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_half_integer(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-9

    def test_recurrence(self):
        for x in (1.5, 4.0):
            assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) < 1e-10

    def test_recurrence_random_sweep(self):
        rng = np.random.default_rng(2)
        xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
        lhs = log_gamma(xs + 1.0) - log_gamma(xs)
        np.testing.assert_allclose(lhs, np.log(xs), atol=1e-9, rtol=0)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))
        np.testing.assert_allclose(log_gamma(xs), sc.gammaln(xs), atol=1e-10, rtol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(-0.1)


class TestSoftmaxTempered:
    def test_equal_logits(self):
        np.testing.assert_allclose(softmax_tempered([3.0, 3.0, 3.0], 1.0), 1.0 / 3.0)

    def test_large_temperature_flattens(self):
        out = softmax_tempered([1.0, 0.0], 1e6)
        np.testing.assert_allclose(out, 0.5, atol=1e-6)

    def test_scalar_evaluation(self):
        # direct scalar oracle: (e^2/(e^2+2), 1/(e^2+2), 1/(e^2+2))
        e2 = math.exp(2.0)
        out = softmax_tempered([2.0, 0.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [e2 / (e2 + 2), 1 / (e2 + 2), 1 / (e2 + 2)], atol=1e-12)

    def test_simplex_and_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            logits = rng.uniform(-50, 50, rng.integers(2, 9))
            tau = float(np.exp(rng.uniform(-2, 2)))
            out = softmax_tempered(logits, tau)
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) < 1e-9
            shifted = softmax_tempered(logits + 7.3, tau)
            np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            softmax_tempered([1.0, np.inf], 1.0)
        with pytest.raises(ValueError):
            softmax_tempered([1.0, 2.0], 0.0)


class TestSigmoidTempered:
    def test_zero_is_half(self):
        for tau in (0.1, 1.0, 42.0):
            assert sigmoid_tempered(0.0, tau) == pytest.approx(0.5)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-30, 30, 500)
        np.testing.assert_allclose(
            sigmoid_tempered(x, 2.0) + sigmoid_tempered(-x, 2.0), 1.0, atol=1e-12
        )

    def test_scalar_evaluation(self):
        assert abs(sigmoid_tempered(1.0, 1.0) - 0.7310585786300049) < 1e-10

    def test_monotone_and_tau_scaling(self):
        xs = np.linspace(-5, 5, 101)
        out = sigmoid_tempered(xs, 0.7)
        assert np.all(np.diff(out) > 0)
        np.testing.assert_array_equal(
            sigmoid_tempered(xs, 0.7), sigmoid_tempered(xs / 0.7, 1.0)
        )

    def test_saturates_without_error(self):
        assert sigmoid_tempered(-1e6, 1.0) == 0.0
        assert sigmoid_tempered(1e6, 1.0) == 1.0


def test_xlogx_zero_convention():
    out = xlogx(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.5 * np.log(0.5), 0.0])


def _slice_loop(ufunc, a):
    out = a[..., 0].copy()
    for g in range(1, a.shape[-1]):
        out = ufunc(out, a[..., g])
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestFolds:
    @pytest.mark.parametrize("ufunc", [np.add, np.maximum])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16])
    def test_fold_last_is_the_slice_loop_bit_for_bit(self, ufunc, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((5, 6, n)) * 10.0 ** rng.integers(-8, 9, (5, 6, n))
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        a.flat[rng.choice(a.size, min(a.size // 3, 40), replace=False)] = rng.choice(special, min(a.size // 3, 40))
        a[0, 0] = -0.0  # a row of negative zeros keeps its sign
        with np.errstate(invalid="ignore"):  # inf + -inf
            got, want = fold_last(ufunc, a), _slice_loop(ufunc, a)
        assert got.shape == a.shape[:-1]
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_numpy_sum_regroups_from_8_slices(self):
        # why fold_last exists: numpy adds 8 or more innermost elements
        # pairwise, so its bits are not the left-to-right fold's
        a = np.random.default_rng(3).standard_normal((200, 8)) * 1e3
        got = fold_last(np.add, a)
        np.testing.assert_array_equal(_bits(got), _bits(_slice_loop(np.add, a)))
        assert (_bits(np.sum(a, axis=-1)) != _bits(got)).any()

    def test_fold_sum_does_not_compensate(self):
        # Python >= 3.12's sum() gives 1.0 here
        assert fold_sum([1e16, 1.0, -1e16], 0.0) == 0.0

    def test_fold_sum_keeps_an_int_start_int(self):
        total = fold_sum([3, 4, 5], 0)
        assert total == 12 and type(total) is int

    def test_only_special_writes_a_python_level_fold(self):
        """No module but special.py calls builtin sum or functools.reduce."""
        root = Path(scool.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            if path.name == "special.py" and path.parent == root:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name) and f.id in ("sum", "reduce"):  # reduce from functools
                    found.append(f"{path.name}:{node.lineno} {f.id}()")
                if isinstance(f, ast.Attribute) and f.attr == "reduce" and getattr(f.value, "id", None) == "functools":
                    found.append(f"{path.name}:{node.lineno} functools.reduce()")
        assert found == []
