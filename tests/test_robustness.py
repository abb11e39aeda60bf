"""Remainder-model robustness: the remainder terms exist exactly so that
every downstream estimate can be checked against perturbed tails."""

import numpy as np
import pytest

from jacobispec.growth import (
    convergence_exponent_from_zeros,
    leading_coefficient_logs,
    order_type_from_coefficients,
    scan_b_zeros,
)
from jacobispec.classify import Regime, classify
from jacobispec.params import (
    ExpansionOrder,
    PowerAsymptotics,
    RemainderKind,
    RemainderModel,
    materialize,
)
from jacobispec.recurrence import (
    SummabilityTrend,
    norm_exponent,
    solve_at_zero,
    square_summability_probe,
    transformed_recurrence,
    wronskian_residual,
)


@pytest.fixture(scope="module")
def noisy_quadratic():
    return PowerAsymptotics(
        beta1=2, beta2=0, x0=1, y0=1, x1=2, x2=1,
        order=ExpansionOrder.SECOND,
        remainder=RemainderModel(RemainderKind.SEEDED_NOISE, 0.5, seed=11),
    )


@pytest.fixture(scope="module")
def noisy_seq(noisy_quadratic):
    return materialize(noisy_quadratic, 5000)


@pytest.fixture(scope="module")
def noisy_sol(noisy_seq):
    return solve_at_zero(noisy_seq)


def test_classification_ignores_remainder(noisy_quadratic):
    cls = classify(noisy_quadratic)
    assert cls.regime is Regime.LCC
    assert cls.predicted_exponent == 0.5


def test_wronskian_stays_tight(noisy_sol, noisy_seq):
    assert wronskian_residual(noisy_sol, noisy_seq) <= 1e-8


def test_decay_slope_survives_noise(noisy_sol):
    assert norm_exponent(noisy_sol, (100, 5000)).slope == pytest.approx(-2.0, abs=0.05)


def test_summability_survives_noise(noisy_sol):
    _, trend = square_summability_probe(noisy_sol)
    assert trend is SummabilityTrend.SUMMABLE


def test_series_order_type_survive_noise(noisy_seq):
    order, tau = order_type_from_coefficients(leading_coefficient_logs(noisy_seq))
    assert order == pytest.approx(0.5, abs=0.02)
    assert tau == pytest.approx(2.0, abs=0.1)


def test_zero_fit_survives_noise(noisy_quadratic):
    seq = materialize(noisy_quadratic, 2000)
    zeros = scan_b_zeros(solve_at_zero(seq), seq, 2000, 1e4)
    fit = convergence_exponent_from_zeros(np.sort(np.abs(zeros)))
    assert fit.slope == pytest.approx(0.5, abs=0.1)


def test_exceptional_tail_survives_deterministic_remainder():
    params = PowerAsymptotics(
        beta1=3, beta2=3, x0=1, y0=-2, x1=2,
        order=ExpansionOrder.SECOND,
        remainder=RemainderModel(RemainderKind.DETERMINISTIC, 0.5),
    )
    seq = materialize(params, 10002)
    _, C = transformed_recurrence(seq)
    assert 10000 * C[10000] == pytest.approx(-1.0, abs=0.05)
    assert norm_exponent(solve_at_zero(seq), (100, 5000)).slope == pytest.approx(
        -2.5, abs=0.1
    )