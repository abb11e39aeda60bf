import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec.classify import CriterionConclusion, berezanskii_test, classify
from jacobispec.params import (
    CarlemanVerdict,
    ExpansionOrder,
    JacobiSequence,
    PowerAsymptotics,
    RemainderKind,
    RemainderModel,
    carleman_sum,
    descriptor_from_json,
    descriptor_to_json,
    exceptional_parameters,
    materialize,
    sequence_from_csv,
    sequence_to_csv,
    wouk_margin,
)


def second_order(**kw):
    kw.setdefault("order", ExpansionOrder.SECOND)
    return PowerAsymptotics(**kw)


class TestDescriptor:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            PowerAsymptotics(beta1=1, beta2=0, x0=0, y0=1)
        with pytest.raises(ValueError):
            PowerAsymptotics(beta1=1, beta2=0, x0=1, y0=0)
        with pytest.raises(ValueError):
            PowerAsymptotics(beta1=1, beta2=0, x0=1, y0=1, epsilon=0)
        with pytest.raises(ValueError):
            # first-order descriptors cannot carry x2/y2 terms
            PowerAsymptotics(beta1=1, beta2=0, x0=1, y0=1, x2=1)

    def test_decimal_strings_are_exact(self):
        p = PowerAsymptotics(beta1="0.1", beta2=0, x0=1, y0=1)
        assert p.frac("beta1") == Fraction(1, 10)
        assert p.frac("beta1") != Fraction(0.1)
        assert p.beta1 == 0.1

    def test_floats_keep_their_exact_binary_value(self):
        p = PowerAsymptotics(beta1=0.1, beta2=0, x0=1, y0=1)
        assert p.frac("beta1") == Fraction(0.1)

    def test_scaled(self):
        p = second_order(beta1=3, beta2=3, x0=1, y0=-2, x1=2, x2=1)
        q = p.scaled(Fraction(3, 2))
        assert q.frac("x0") == Fraction(3, 2)
        assert q.frac("y0") == -3
        assert q.frac("beta1") == 3


class TestMaterialize:
    def test_hand_value_at_n3(self):
        p = second_order(beta1=2, beta2=0, x0=1, x1=2, x2=1, y0=1)
        seq = materialize(p, 5)
        assert seq.rho[3] == 16.0  # 3^2 (1 + 2/3 + 1/9)
        assert np.allclose(seq.rho[1:], (np.arange(1, 5) + 1.0) ** 2)

    def test_index0_guard(self):
        p = second_order(beta1=2, beta2=0, x0=1, x1=2, x2=1, y0=1)
        seq = materialize(p, 4)
        assert seq.rho[0] == 1 + 2 + 1  # evaluated at m = 1
        assert seq.q[0] == seq.q[1]

    def test_zero_amplitude_equals_no_remainder(self):
        base = PowerAsymptotics(beta1=1, beta2=0, x0=1, y0=1)
        with_rem = PowerAsymptotics(
            beta1=1, beta2=0, x0=1, y0=1,
            remainder=RemainderModel(RemainderKind.DETERMINISTIC, 0.0),
        )
        a = materialize(base, 64)
        b = materialize(with_rem, 64)
        assert np.array_equal(a.rho, b.rho) and np.array_equal(a.q, b.q)

    def test_deterministic_remainder_values(self):
        # second order: the remainder envelope is c m^(-2-eps) inside the
        # parenthesis
        p = second_order(
            beta1=0, beta2=0, x0=1, y0=1, epsilon=1.0,
            remainder=RemainderModel(RemainderKind.DETERMINISTIC, 1.0),
        )
        seq = materialize(p, 8)
        assert seq.rho[2] == 1.0 + 2.0**-3
        assert seq.q[4] == 1.0 + 4.0**-3
        first = PowerAsymptotics(
            beta1=0, beta2=0, x0=1, y0=1, epsilon=0.5,
            remainder=RemainderModel(RemainderKind.DETERMINISTIC, 1.0),
        )
        seq1 = materialize(first, 8)
        assert seq1.rho[4] == 1.0 + 4.0**-1.5

    def test_seeded_noise_reproducible(self):
        p = PowerAsymptotics(
            beta1=2, beta2=0, x0=1, y0=1,
            remainder=RemainderModel(RemainderKind.SEEDED_NOISE, 0.5, seed=7),
        )
        a = materialize(p, 200)
        b = materialize(p, 200)
        assert np.array_equal(a.rho, b.rho) and np.array_equal(a.q, b.q)
        other = PowerAsymptotics(
            beta1=2, beta2=0, x0=1, y0=1,
            remainder=RemainderModel(RemainderKind.SEEDED_NOISE, 0.5, seed=8),
        )
        assert not np.array_equal(materialize(other, 200).rho, a.rho)

    def test_rejects_small_N_and_nonpositive_rho(self):
        p = PowerAsymptotics(beta1=1, beta2=0, x0=1, y0=1)
        with pytest.raises(ValueError):
            materialize(p, 1)
        huge = PowerAsymptotics(
            beta1=0, beta2=0, x0=1, y0=1,
            remainder=RemainderModel(RemainderKind.SEEDED_NOISE, 1000.0, seed=0),
        )
        with pytest.raises(ValueError, match="remainder amplitude"):
            materialize(huge, 16)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "desc, bad",
        [
            ({"beta1": 200, "beta2": 0, "x0": 1, "y0": 1}, 35),
            ({"beta1": 2, "beta2": 0, "x0": 1, "y0": 1, "x1": "1e307"}, 18),
        ],
    )
    def test_overflow_names_the_first_non_finite_index(self, desc, bad):
        # numpy's overflow warning used to come before the sequence's own
        # "both arrays finite" error, which named no index
        with pytest.raises(ValueError, match=rf"rho\[{bad}\] = inf.*{bad} is the first index"):
            materialize(descriptor_from_json(desc), 100)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(beta1=2, beta2=0, x0=1, x1=2, x2=1, y0=1),
            dict(beta1=3, beta2=3, x0=1, y0=-2, x1=2, y1=0),
            dict(beta1=1.5, beta2=0.5, x0=2, x1=-1, x2=0.25, y0=-1, y1=3, y2=2),
        ],
    )
    def test_second_order_values_exact_to_4ulp(self, kw):
        seq = materialize(second_order(**kw), 2000)
        n = np.arange(1, 2000, dtype=np.float64)
        lhs = seq.rho[1:] * n ** (-seq.descriptor.beta1)
        rhs = kw["x0"] + kw.get("x1", 0) / n + kw.get("x2", 0) / n**2
        assert np.all(np.abs(lhs - rhs) <= 4 * np.spacing(np.abs(rhs)))


class TestWoukMargin:
    def test_free_matrix_margin_two(self, free_seq):
        assert np.all(wouk_margin(free_seq) == 2.0)

    def test_hand_value(self):
        n = np.arange(6)
        seq = JacobiSequence(rho=n + 1.0, q=2.0 * (n + 1.0))
        assert wouk_margin(seq)[1] == -1.0  # n = 2: 3 + 2 - 6

    def test_exceptional_tail_is_z1(self, m3_seq, m3):
        z1 = classify(m3).z1
        margin = wouk_margin(m3_seq)
        n = 10**4
        beta = m3.beta1
        assert margin[n - 1] / n ** (beta - 1) == pytest.approx(z1, abs=5e-4)


class TestZ1Z2:
    def test_hand_z1(self):
        p = second_order(beta1=3, beta2=3, x0=1, y0=-2, x1=2, y1=0)
        assert classify(p).z1 == 1.0

    def test_zero_when_terms_vanish(self):
        p = second_order(beta1=0, beta2=0, x0=1, y0=2)
        assert classify(p).z1 == 0.0

    def test_hand_z2(self):
        p = second_order(beta1=2, beta2=2, x0=1, y0=-2, x1=1, y2=1)
        # 2 x2 + y2 + (beta-1)(beta-2 x1)/2 at y0 = -2
        assert classify(p).z2 == 1.0

    def test_none_off_the_second_order_exceptional_family(self):
        # first-order data with a c n^(-2) remainder is not second-order data
        first_order = RemainderModel(RemainderKind.DETERMINISTIC, amplitude=0.5)
        for p in (
            second_order(beta1=2, beta2=0, x0=1, y0=1),
            PowerAsymptotics(beta1=2, beta2=2, x0=1, y0=2, remainder=first_order),
        ):
            cls = classify(p)
            assert cls.z1 is None and cls.z2 is None

    @given(
        lam=st.fractions(min_value=Fraction(1, 100), max_value=100),
        x1=st.fractions(-10, 10),
        y1=st.fractions(-10, 10),
        x2=st.fractions(-10, 10),
        y2=st.fractions(-10, 10),
        beta=st.fractions(-5, 5),
    )
    @settings(max_examples=60)
    def test_scaling_covariance(self, lam, x1, y1, x2, y2, beta):
        p = second_order(
            beta1=beta, beta2=beta, x0=1, y0=-2, x1=x1, y1=y1, x2=x2, y2=y2
        )
        base, scaled = classify(p), classify(p.scaled(lam))
        assert scaled.z1 == pytest.approx(float(lam) * base.z1, rel=1e-12, abs=1e-12)
        assert scaled.z2 == pytest.approx(float(lam) * base.z2, rel=1e-12, abs=1e-12)


class TestLogConcavity:
    """The defect count of ``berezanskii_test``, which starts at n = 2."""

    # beta1 > 1 and beta2 - beta1 < -1: the series conditions hold, so the
    # verdict turns on log-concavity alone
    SOURCE = PowerAsymptotics(beta1=2, beta2=0, x0=1, y0=1)

    def verdict(self, rho):
        return berezanskii_test(
            JacobiSequence(rho=rho, q=np.ones(rho.size), source=self.SOURCE)
        )

    def test_squares_have_no_defect(self):
        # brute force over the mathematical sequence (n+1)^2, n <= 1e4
        v = self.verdict((np.arange(10**4) + 1.0) ** 2)
        assert v.conclusion is CriterionConclusion.IMPLIES_LCC
        assert "defect" not in v.evidence

    def test_index0_guard_creates_one_head_defect(self):
        # rho[0] = rho[1] by the guard, so growing families defect at n = 1;
        # the dichotomy ignores finitely many entries, and so does the test
        p = second_order(beta1=2, beta2=0, x0=1, x1=2, x2=1, y0=1)
        seq = materialize(p, 10**3)
        assert seq.rho[1] ** 2 < seq.rho[2] * seq.rho[0]
        v = berezanskii_test(seq)
        assert v.conclusion is CriterionConclusion.IMPLIES_LCC
        assert "defect" not in v.evidence

    def test_single_defect(self):
        rho = (np.arange(8) + 1.0) ** 2
        rho[-1] *= 4.0  # rho_6^2 < rho_7 rho_5, and only there
        v = self.verdict(rho)
        assert v.conclusion is CriterionConclusion.NO_CONCLUSION
        assert v.evidence == "1 log-concavity defects beyond n = 1"

    def test_geometric_equality_case(self):
        v = self.verdict(2.0 ** np.arange(20))
        assert v.conclusion is CriterionConclusion.IMPLIES_LCC
        assert "defect" not in v.evidence


class TestCarleman:
    def test_constant_rho_diverges(self):
        p = PowerAsymptotics(beta1=0, beta2=0, x0=1, y0=1)
        _, verdict = carleman_sum(materialize(p, 100))
        assert verdict is CarlemanVerdict.DIVERGENT

    def test_beta_two_converges(self, m1_seq):
        _, verdict = carleman_sum(m1_seq)
        assert verdict is CarlemanVerdict.CONVERGENT

    def test_external_inconclusive(self):
        seq = JacobiSequence(rho=np.ones(100), q=np.zeros(100))
        total, verdict = carleman_sum(seq)
        assert verdict is CarlemanVerdict.INCONCLUSIVE
        assert total == pytest.approx(100.0)


class TestExceptionalDetection:
    def test_exact(self):
        p = second_order(beta1=3, beta2=3, x0=1, y0=-2)
        assert exceptional_parameters(p) == (True, False)

    def test_near_boundary_flagged(self):
        p = second_order(beta1=3, beta2=3, x0=1, y0=-(2 + 1e-14))
        exceptional, near = exceptional_parameters(p)
        assert exceptional and near

    def test_clearly_off(self):
        p = PowerAsymptotics(beta1=3, beta2=3, x0=1, y0=-2.1)
        assert exceptional_parameters(p) == (False, False)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        p = second_order(
            beta1="1.8", beta2="1.8", x0=1, y0=-2, x1=2,
            remainder=RemainderModel(RemainderKind.SEEDED_NOISE, 0.25, seed=3),
        )
        doc = descriptor_to_json(p)
        q = descriptor_from_json(json.loads(json.dumps(doc)))
        assert q.beta1 == p.beta1 and q.remainder == p.remainder
        assert q.order is ExpansionOrder.SECOND

    def test_order_inferred_from_x2(self):
        q = descriptor_from_json({"beta1": 2, "beta2": 2, "x0": 1, "y0": 2, "x2": 0})
        assert q.order is ExpansionOrder.SECOND

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            descriptor_from_json({"beta1": 1, "beta2": 0, "x0": 1, "y0": 1, "zz": 2})

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            descriptor_from_json({"beta1": 1, "beta2": 0, "x0": 1})

    @pytest.mark.parametrize("value", ["1e-1000", "2.5E+0300", "1e-0_1000"])
    def test_decimal_exponent_up_to_the_cap(self, value):
        doc = {"beta1": 2, "beta2": 0, "x0": 1, "y0": 1, "x1": value}
        assert descriptor_from_json(doc).frac("x1") == Fraction(value)

    @pytest.mark.parametrize(
        "value", ["1e-1001", "1e+0001001", "1e-3000000", "1e" + "9" * 5000]
    )
    def test_decimal_exponent_beyond_the_cap(self, value):
        doc = {"beta1": 2, "beta2": 0, "x0": 1, "y0": 1, "x1": value}
        with pytest.raises(ValueError, match="decimal exponent"):
            descriptor_from_json(doc)

    def test_csv_round_trip(self, tmp_path):
        seq = JacobiSequence(
            rho=np.array([1.0, 2.5, 3.25]), q=np.array([0.0, -1.0, 0.125])
        )
        path = tmp_path / "seq.csv"
        sequence_to_csv(seq, path)
        back = sequence_from_csv(path)
        assert np.array_equal(back.rho, seq.rho)
        assert np.array_equal(back.q, seq.q)
        assert back.source == "external"

    def test_csv_header_and_index_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("rho,q\n1.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            sequence_from_csv(bad)
        bad.write_text("n,rho,q\n1,1.0,0.0\n")
        with pytest.raises(ValueError, match="increase"):
            sequence_from_csv(bad)


def test_sequences_are_immutable(m1_seq, m1_sol):
    with pytest.raises(ValueError):
        m1_seq.rho[0] = 5.0
    with pytest.raises(ValueError):
        m1_sol.P[0] = 5.0
