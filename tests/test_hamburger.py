import numpy as np
import pytest

from jacobispec.hamburger import (
    HamburgerData,
    delta_exponents,
    exceptional_order_bound,
    exponent_upper_bounds,
    lengths_angles,
)
from jacobispec.params import JacobiSequence
from jacobispec.recurrence import PolySolution


class TestLengthsAngles:
    def test_orthogonal_step_has_unit_sine(self):
        rho0 = 3.7
        sol = PolySolution(P=np.array([1.0, 0.0]), Q=np.array([0.0, 1.0 / rho0]))
        seq = JacobiSequence(rho=np.array([rho0]), q=np.array([0.0]))
        data = lengths_angles(sol, seq)
        assert data.l[0] == 1.0
        assert data.l[1] == pytest.approx(1.0 / rho0**2)
        assert data.dphi[0] == pytest.approx(1.0)

    def test_definitional_identity_exact(self, m1_sol, m1_seq):
        data = lengths_angles(m1_sol, m1_seq)
        product = data.dphi * m1_seq.rho * np.sqrt(data.l[:-1] * data.l[1:])
        assert np.all(np.abs(product - 1.0) <= 4 * np.spacing(1.0))

    def test_lengths_positive_and_sine_bounded(self, m3_sol, m3_seq):
        data = lengths_angles(m3_sol, m3_seq)
        assert np.all(data.l > 0)
        assert np.all(data.dphi <= 1.0 + 1e-9)
        assert np.all(data.dphi > 0)

    def test_m1_lengths_scale_like_inverse_square(self, m1_sol, m1_seq):
        data = lengths_angles(m1_sol, m1_seq)
        n = np.arange(100, 5001)
        scaled = data.l[n] * n.astype(float) ** 2
        assert 0.01 < scaled.min() and scaled.max() < 100.0

    def test_rejects_inconsistent_inputs(self):
        sol = PolySolution(P=np.array([1.0, 5.0]), Q=np.array([1.0, 5.0]))
        seq = JacobiSequence(rho=np.array([0.01]), q=np.array([0.0]))
        with pytest.raises(ValueError, match="inconsistent"):
            lengths_angles(sol, seq)

    def test_rejects_length_mismatch(self, m1_sol):
        seq = JacobiSequence(rho=np.ones(7), q=np.zeros(7))
        with pytest.raises(ValueError):
            lengths_angles(m1_sol, seq)


class TestDeltaExponents:
    def test_synthetic_exact_powers(self):
        n = np.arange(0, 4097, dtype=float)
        l = np.maximum(n, 1.0) ** -1.0
        dphi = np.maximum(n[:-1], 1.0) ** -2.0
        deltas = delta_exponents(HamburgerData(l=l, dphi=dphi), (16, 4095))
        assert deltas.delta_l == pytest.approx(1.0, abs=1e-6)
        assert deltas.delta_phi == pytest.approx(2.0, abs=1e-6)

    def test_m3_deltas_sum_to_beta(self, m3_sol, m3_seq):
        data = lengths_angles(m3_sol, m3_seq)
        deltas = delta_exponents(data, (100, 10000))
        assert deltas.delta_l == pytest.approx(2.5, abs=0.1)
        assert deltas.delta_phi == pytest.approx(0.5, abs=0.1)
        assert deltas.total == pytest.approx(3.0, abs=0.1)

    def test_m4_delta_sum_despite_log_oscillation(self):
        # complex indicial pair: the individual exponents carry a
        # log-periodic wobble, but their sum still estimates beta
        from jacobispec.verify import _seq, _sol

        data = lengths_angles(_sol("m4", 10002), _seq("m4", 10002))
        deltas = delta_exponents(data, (100, 10000))
        assert deltas.total == pytest.approx(3.0, abs=0.1)

    def test_window_validation(self, m1_sol, m1_seq):
        data = lengths_angles(m1_sol, m1_seq)
        with pytest.raises(ValueError):
            delta_exponents(data, (0, 100))
        with pytest.raises(ValueError):
            delta_exponents(data, (100, 100 + 7))
        with pytest.raises(ValueError):
            delta_exponents(data, (100, len(m1_seq)))


class TestOrderBound:
    def test_hand_values(self):
        assert exceptional_order_bound(1.75) == pytest.approx(2.0 / 3.0)
        assert exceptional_order_bound(1.6) == pytest.approx(1.0 / 1.2)

    def test_continuity_at_two(self):
        assert exceptional_order_bound(2.0 - 1e-9) == pytest.approx(0.5, abs=1e-8)

    def test_domain(self):
        for beta in (1.5, 2.0, 0.3, 5.0):
            with pytest.raises(ValueError):
                exceptional_order_bound(beta)

    def test_interval_nonempty(self):
        beta = 1.6
        assert 1.0 / beta < exceptional_order_bound(beta)


class TestIntervalComparison:
    @pytest.mark.parametrize(
        "beta,naive,improved",
        [(1.75, 0.8, 2.0 / 3.0), (2.0, 2.0 / 3.0, 0.5), (3.0, 0.4, 1.0 / 3.0)],
    )
    def test_hand_values(self, beta, naive, improved):
        n, i = exponent_upper_bounds(beta)
        assert n == pytest.approx(naive)
        assert i == pytest.approx(improved)

    def test_improvement_on_grid(self):
        for beta in np.linspace(1.51, 1.99, 25):
            naive, improved = exponent_upper_bounds(float(beta))
            assert improved < naive

    def test_domain(self):
        with pytest.raises(ValueError):
            exponent_upper_bounds(1.5)

    def test_improved_bound_never_exceeds_naive(self, monkeypatch):
        import jacobispec.hamburger as H

        monkeypatch.setattr(H, "exceptional_order_bound", lambda beta: 2.0)
        with pytest.raises(ValueError, match="exceeds the naive"):
            H.exponent_upper_bounds(1.75)
