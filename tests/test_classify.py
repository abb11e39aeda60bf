import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobispec.classify import (
    Classification,
    CriterionConclusion,
    CriterionVerdict,
    Regime,
    berezanskii_test,
    carleman_test,
    classify,
    classify_distinct_roots,
    classify_double_root,
    wouk_test,
)
from jacobispec.cli import _write_json
from jacobispec.params import (
    ExpansionOrder,
    JacobiSequence,
    PowerAsymptotics,
    RemainderKind,
    RemainderModel,
    materialize,
)
from jacobispec.verify import golden_table


def second_order(**kw):
    kw.setdefault("order", ExpansionOrder.SECOND)
    return PowerAsymptotics(**kw)


rational = st.fractions(min_value=-6, max_value=6)
positive_rational = st.fractions(min_value=Fraction(1, 8), max_value=6)
nonzero_rational = rational.filter(lambda f: f != 0)


@st.composite
def descriptors(draw, exceptional=None):
    beta1 = draw(rational)
    if exceptional is None:
        exceptional = draw(st.booleans())
    if exceptional:
        beta2 = beta1
        x0 = draw(positive_rational)
        y0 = draw(st.sampled_from([2, -2])) * x0
    else:
        beta2 = draw(rational)
        x0 = draw(positive_rational)
        y0 = draw(nonzero_rational)
        assume(not (beta1 == beta2 and 2 * x0 == abs(y0)))
    return second_order(
        beta1=beta1,
        beta2=beta2,
        x0=x0,
        y0=y0,
        x1=draw(rational),
        y1=draw(rational),
        x2=draw(rational),
        y2=draw(rational),
    )


# Test-only oracles for the boundary family T2(iii) (beta = B* > 3/2), each
# an independent restatement of the lcc threshold beta < 3/2 + 2 z2/x0 that
# ``classify`` decides.


def _boundary_family(params):
    """(beta, x0, x1, x2, y0, y1, y2) of a boundary-family descriptor."""
    f = params.frac
    beta, x0, y0 = f("beta1"), f("x0"), f("y0")
    x1, y1 = f("x1"), f("y1")
    if not (
        params.order is ExpansionOrder.SECOND
        and f("beta2") == beta
        and 2 * x0 == abs(y0)
        and beta == 2 * x1 / x0 - 2 * y1 / y0
        and beta > Fraction(3, 2)
    ):
        raise ValueError("descriptor is not in the boundary family (beta = B* > 3/2)")
    return beta, x0, x1, f("x2"), y0, y1, f("y2")


def equivalent_conditions_case3(params):
    """The two rational inequalities whose conjunction is the lcc verdict.

    cond1:  1 < x1/x0 - y1/y0
    cond2:  x1/|y0| + (y1/y0)((x1/x0 - y1/y0) - 1) < 3/8 + x2/x0 - y2/y0
    """
    _, x0, x1, x2, y0, y1, y2 = _boundary_family(params)
    ratio = x1 / x0 - y1 / y0
    cond1 = 1 < ratio
    cond2 = x1 / abs(y0) + (y1 / y0) * (ratio - 1) < Fraction(3, 8) + x2 / x0 - y2 / y0
    return cond1, cond2


def double_root_lcc(params):
    """lcc from the indicial roots (1 +- sqrt(1 + 4d))/2 of the z1 = 0 case.

    A complex pair or double root (1 + 4d <= 0) is lcc iff beta > 2; distinct
    real roots iff the dominating solution is square-summable, sqrt(1 + 4d)
    < beta - 2.  Both read lcc <=> beta > 2 and 1 + 4d < (beta - 2)^2, which
    needs no square root.
    """
    beta, x0, x1, x2, y0, _, y2 = _boundary_family(params)
    z2 = x0 * (2 * x2 / x0 - 2 * y2 / y0 + (beta - 1) / 2 * (beta - 2 * x1 / x0))
    d = -z2 / x0 + beta * (beta - 2) / 4
    return beta > 2 and 1 + 4 * d < (beta - 2) ** 2


class TestGoldenTable:
    @pytest.mark.parametrize("row", range(12))
    def test_hand_derived_row(self, row):
        params, regime, label, exponent, a, dl, du = golden_table()[row]
        cls = classify(params)
        assert cls.regime is regime
        assert cls.case_label == label
        if exponent is None:
            assert cls.predicted_exponent is None
        elif isinstance(exponent, tuple):
            assert cls.predicted_exponent == pytest.approx(exponent, abs=1e-12)
        else:
            assert cls.predicted_exponent == pytest.approx(exponent, abs=1e-12)
        if a is not None:
            assert cls.a_constant == pytest.approx(a, abs=1e-12)
        if dl is not None:
            assert cls.density_lower == pytest.approx(dl, abs=1e-12)
        if du is not None:
            assert cls.density_upper == pytest.approx(du, abs=1e-12)


class TestDistinctRoots:
    def test_lcc_with_densities(self):
        cls = classify_distinct_roots(
            PowerAsymptotics(beta1=2, beta2=0, x0=1, y0=1)
        )
        assert cls.regime is Regime.LCC
        assert cls.predicted_exponent == 0.5
        assert cls.a_constant == 1.0
        assert cls.density_lower == pytest.approx(0.5)
        assert cls.density_upper == pytest.approx(2 * math.e)

    def test_equal_exponent_constant(self):
        cls = classify_distinct_roots(
            PowerAsymptotics(beta1=3, beta2=3, x0=1, y0=1)
        )
        assert cls.a_constant == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    def test_small_beta_is_lpc(self):
        cls = classify_distinct_roots(
            PowerAsymptotics(beta1=0.5, beta2=0.5, x0=1, y0=1)
        )
        assert cls.regime is Regime.LPC and cls.case_label == "T1(ii)"

    def test_rejects_double_root_family(self):
        with pytest.raises(ValueError):
            classify_distinct_roots(second_order(beta1=3, beta2=3, x0=1, y0=2))

    def test_density_upper_absent_in_lpc(self):
        cls = classify_distinct_roots(PowerAsymptotics(beta1=1, beta2=2, x0=1, y0=1))
        assert cls.density_upper is None and cls.predicted_exponent is None


class TestDoubleRoot:
    def test_point_exponent_branch(self):
        cls = classify_double_root(
            second_order(beta1=3, beta2=3, x0=1, y0=-2, x1=2)
        )
        assert cls.regime is Regime.LCC and cls.case_label == "T2(ii)"
        assert cls.predicted_exponent == pytest.approx(1 / 3)
        assert cls.density_upper is None
        assert cls.d == pytest.approx(1.75)  # -z2/x0 + beta (beta-2)/4 = 1 + 0.75

    def test_interval_branch(self):
        cls = classify_double_root(
            second_order(beta1=1.8, beta2=1.8, x0=1, y0=-2, x1=2)
        )
        lo, hi = cls.predicted_exponent
        assert lo == pytest.approx(1 / 1.8) and hi == pytest.approx(1 / 1.6)
        assert any("conjectured" in n for n in cls.notes)

    def test_boundary_family_lcc(self):
        cls = classify_double_root(
            second_order(beta1=3, beta2=3, x0=1, y0=-2, x1=1.5, x2=2)
        )
        assert cls.regime is Regime.LCC and cls.case_label == "T2(iii)"
        assert cls.z2 == pytest.approx(4.0)

    def test_rejects_first_order(self):
        with pytest.raises(ValueError, match="second-order"):
            classify_double_root(PowerAsymptotics(beta1=3, beta2=3, x0=1, y0=2))

    def test_rejects_generic(self):
        with pytest.raises(ValueError):
            classify_double_root(second_order(beta1=3, beta2=0, x0=1, y0=2))


class TestDispatch:
    def test_routes_to_distinct_roots(self):
        assert classify(
            PowerAsymptotics(beta1=2, beta2=0, x0=1, y0=1)
        ).case_label.startswith("T1")

    def test_routes_to_double_root(self):
        assert classify(
            second_order(beta1=3, beta2=3, x0=1, y0=2)
        ).case_label.startswith("T2")

    def test_first_order_exceptional_undetermined(self):
        # a first-order remainder c n^(-1-eps) with eps <= 1 is not
        # O(n^(-2-delta)), the hypothesis of the second-order case split
        for remainder in (
            RemainderModel(RemainderKind.DETERMINISTIC, 0.5),
            RemainderModel(RemainderKind.SEEDED_NOISE, 0.5, seed=7),
        ):
            cls = classify(
                PowerAsymptotics(beta1=3, beta2=3, x0=1, y0=2, remainder=remainder)
            )
            assert cls.regime is Regime.UNDETERMINED
            assert cls.case_label == "exceptional/first-order"
            assert "x2 = y2 = 0 needs a remainder O(n^(-2-delta))" in cls.notes[0]
            assert f"{remainder.kind.value} remainder" in cls.notes[0]
            assert "eps = 1 <= 1" in cls.notes[0]

    @pytest.mark.parametrize(
        "kw, regime, label",
        [
            # b* = 0 < beta = 3
            (dict(beta1=3, beta2=3, x0=1, y0=-2), Regime.LPC, "T2(i)"),
            (dict(beta1=3, beta2=3, x0=1, y0=2), Regime.LPC, "T2(i)"),
            # 2 <= beta = 2.5 < b* = 4
            (dict(beta1=2.5, beta2=2.5, x0=1, y0=-2, x1=2), Regime.LCC, "T2(ii)"),
            # a zero-amplitude remainder adds nothing
            (dict(beta1=3, beta2=3, x0=1, y0=-2,
                  remainder=RemainderModel(RemainderKind.DETERMINISTIC, 0.0)),
             Regime.LPC, "T2(i)"),
            # c n^(-1-eps) with eps = 3/2 is O(n^(-5/2))
            (dict(beta1=2.5, beta2=2.5, x0=1, y0=-2, x1=2, epsilon="1.5",
                  remainder=RemainderModel(RemainderKind.SEEDED_NOISE, 0.5, seed=7)),
             Regime.LCC, "T2(ii)"),
        ],
    )
    def test_first_order_exceptional_decided_as_second_order(self, kw, regime, label):
        first = PowerAsymptotics(**kw)
        cls = classify(first)
        assert (cls.regime, cls.case_label) == (regime, label)
        assert cls.notes[0] == (
            "first-order data classified as second-order data with x2 = y2 = 0"
        )
        as_second = classify_double_root(second_order(**kw))
        assert cls == dataclasses.replace(as_second, notes=cls.notes)
        assert cls.notes[1:] == as_second.notes

    def test_near_boundary_note(self):
        cls = classify(second_order(beta1=3, beta2=3, x0=1, y0=-(2 + 1e-14)))
        assert cls.case_label.startswith("T2")
        assert any("near-boundary" in n for n in cls.notes)


class TestWouk:
    def test_heavy_diagonal(self):
        v = wouk_test(PowerAsymptotics(beta1=2, beta2=2, x0=1, y0=3))
        assert v.conclusion is CriterionConclusion.IMPLIES_LPC

    def test_exceptional_negative_z1(self):
        p = second_order(beta1=3, beta2=3, x0=1, y0=-2, x1=1)  # z1 = 2 - 3 = -1
        assert classify(p).z1 == -1.0
        assert wouk_test(p).conclusion is CriterionConclusion.IMPLIES_LPC

    def test_free_matrix_heuristic(self, free_seq):
        v = wouk_test(free_seq)
        assert v.conclusion is CriterionConclusion.IMPLIES_LPC
        assert "heuristic" in v.evidence

    def test_growing_margin_gives_nothing(self, m1_seq):
        assert wouk_test(m1_seq).conclusion is CriterionConclusion.NO_CONCLUSION

    def test_raw_growing_margin(self):
        n = np.arange(512)
        seq = JacobiSequence(rho=(n + 1.0) ** 2, q=np.zeros(512))
        v = wouk_test(seq)
        assert v.conclusion is CriterionConclusion.NO_CONCLUSION
        assert not v.applies


class TestBerezanskii:
    def test_dominant_offdiagonal_lcc(self):
        seq = materialize(PowerAsymptotics(beta1=3, beta2=0, x0=1, y0=1), 512)
        assert berezanskii_test(seq).conclusion is CriterionConclusion.IMPLIES_LCC

    def test_ratio_series_too_slow(self):
        seq = materialize(PowerAsymptotics(beta1=2, beta2=1.5, x0=1, y0=1), 512)
        v = berezanskii_test(seq)
        assert v.conclusion is CriterionConclusion.NO_CONCLUSION
        assert "beta2 - beta1" in v.evidence

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rho_beyond_the_square_root_of_binary64(self):
        # rho_n = n^60 reaches 1.1e198 at n = 2000, where its square
        # overflowed and a defect there went uncounted
        seq = materialize(PowerAsymptotics(beta1=60, beta2=0, x0=1, y0=1), 2000)
        assert seq.rho[-1] > 1e198
        assert berezanskii_test(seq).conclusion is CriterionConclusion.IMPLIES_LCC
        rho = seq.rho.copy()
        rho[-2] *= 0.5  # rho_{N-2}^2 < rho_{N-1} rho_{N-3}
        dented = JacobiSequence(rho=rho, q=seq.q, source=seq.source)
        v = berezanskii_test(dented)
        assert v.conclusion is CriterionConclusion.NO_CONCLUSION
        assert "1 log-concavity defects" in v.evidence

    def test_raw_sequence_defect(self):
        seq = JacobiSequence(rho=np.array([1.0, 1.0, 10.0]), q=np.zeros(3))
        assert berezanskii_test(seq).conclusion is CriterionConclusion.NO_CONCLUSION


class TestEquivalentConditions:
    def test_boundary_lcc_example(self):
        p = second_order(beta1=3, beta2=3, x0=1, y0=-2, x1=1.5, x2=2)
        assert equivalent_conditions_case3(p) == (True, True)
        assert double_root_lcc(p)

    def test_cond1_boundary_excluded(self):
        # x1/x0 - y1/y0 = 1 exactly: beta = B* = 2, cond1 fails
        p = second_order(beta1=2, beta2=2, x0=1, y0=-2, x1=1)
        cond1, _ = equivalent_conditions_case3(p)
        assert not cond1
        assert not double_root_lcc(p)
        assert classify(p).regime is Regime.LPC

    def test_rejects_non_boundary(self):
        with pytest.raises(ValueError):
            equivalent_conditions_case3(
                second_order(beta1=3, beta2=3, x0=1, y0=-2, x1=2)
            )

    @given(
        x0=positive_rational,
        ratio=st.fractions(min_value=Fraction(7, 8), max_value=6),
        y1=rational,
        x2=rational,
        y2=rational,
        sign=st.sampled_from([1, -1]),
        edge=st.sampled_from([None, "threshold", "beta_two"]),
    )
    @settings(max_examples=120)
    def test_conjunction_matches_verdict(self, x0, ratio, y1, x2, y2, sign, edge):
        # build x1 so that beta = 2 (x1/x0 - y1/y0) = 2 ratio > 3/2 exactly
        y0 = 2 * x0 * sign
        if edge == "beta_two":
            ratio = Fraction(1)
        x1 = x0 * ratio + x0 * Fraction(y1) / y0
        beta = 2 * ratio
        if edge == "threshold":
            # x2 with beta = 3/2 + 2 z2/x0 exactly
            x2 = x0 / 2 * (
                (beta - Fraction(3, 2)) / 2
                + 2 * Fraction(y2) / y0
                - (beta - 1) / 2 * (beta - 2 * x1 / x0)
            )
        p = second_order(
            beta1=beta, beta2=beta, x0=x0, y0=y0, x1=x1, y1=y1, x2=x2, y2=y2
        )
        cls = classify(p)
        assert cls.case_label == "T2(iii)"
        cond1, cond2 = equivalent_conditions_case3(p)
        lcc = cls.regime is Regime.LCC
        assert (cond1 and cond2) == lcc
        assert double_root_lcc(p) == lcc
        if edge is not None:
            assert cls.regime is Regime.LPC


class TestProperties:
    @given(descriptors())
    @settings(max_examples=120)
    def test_exactly_one_case_label(self, params):
        cls = classify(params)
        assert cls.case_label in {
            "T1(i)", "T1(ii)", "T2(i)", "T2(ii)", "T2(iii)"
        }
        assert cls.regime in (Regime.LCC, Regime.LPC)

    @given(descriptors())
    @settings(max_examples=80, deadline=None)
    def test_criteria_never_contradict_classification(self, params):
        cls = classify(params)
        try:
            seq = materialize(params, 256)
        except ValueError:
            assume(False)  # head terms break positivity; family not realizable
        wouk = wouk_test(params)
        if wouk.conclusion is CriterionConclusion.IMPLIES_LPC:
            assert cls.regime is Regime.LPC
        if carleman_test(seq).conclusion is CriterionConclusion.IMPLIES_LPC:
            assert cls.regime is Regime.LPC
        if berezanskii_test(seq).conclusion is CriterionConclusion.IMPLIES_LCC:
            assert cls.regime is Regime.LCC

    @given(descriptors(), st.fractions(min_value=Fraction(1, 4), max_value=4))
    @settings(max_examples=80)
    def test_scale_invariance(self, params, lam):
        base = classify(params)
        scaled = classify(params.scaled(lam))
        assert scaled.regime is base.regime
        assert scaled.case_label == base.case_label
        assert scaled.predicted_exponent == base.predicted_exponent
        if base.density_lower is not None:
            factor = float(lam) ** (-1.0 / params.beta1)
            assert scaled.density_lower == pytest.approx(
                base.density_lower * factor, rel=1e-9
            )
            if base.density_upper is not None:
                assert scaled.density_upper == pytest.approx(
                    base.density_upper * factor, rel=1e-9
                )

    @given(descriptors(exceptional=True))
    @settings(max_examples=120)
    def test_boundary_family_quadratic_consistency(self, params):
        # d <= -1/4 together with beta > 2 forces beta below the z2 threshold
        cls = classify(params)
        if cls.case_label != "T2(iii)" or cls.d is None:
            return
        beta, x0 = params.beta1, params.x0
        if cls.d <= -0.25 and beta > 2:
            assert beta < 1.5 + 2 * cls.z2 / x0

    @given(st.fractions(min_value=Fraction(11, 10), max_value=8),
           st.fractions(min_value=-8, max_value=8),
           positive_rational)
    @settings(max_examples=80)
    def test_density_bounds_ordered(self, beta1, beta2, x0):
        assume(beta2 < beta1)
        params = PowerAsymptotics(beta1=beta1, beta2=beta2, x0=x0, y0=1)
        cls = classify(params)
        if cls.density_lower is not None and cls.density_upper is not None:
            assert cls.density_lower < cls.density_upper


def test_classification_json_round_trip(tmp_path):
    # the CLI's writer serializes result dataclasses: enums by value, tuples
    # as lists
    cls = classify(second_order(beta1=1.8, beta2=1.8, x0=1, y0=-2, x1=2))
    _write_json({"classification": cls}, tmp_path / "c.json")
    doc = json.loads((tmp_path / "c.json").read_text())["classification"]
    assert doc["regime"] == "lcc"
    assert doc["predicted_exponent"] == [
        pytest.approx(1 / 1.8),
        pytest.approx(1 / 1.6),
    ]
    assert isinstance(doc["notes"], list)


class TestInvariants:
    def test_conclusive_verdict_must_apply(self):
        with pytest.raises(ValueError, match="must apply"):
            CriterionVerdict("carleman", False, CriterionConclusion.IMPLIES_LPC, "")

    def test_lcc_needs_exponent(self):
        with pytest.raises(ValueError, match="predicted exponent"):
            Classification(Regime.LCC, "T1(ii)")

    def test_exponent_interval_ordered(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            Classification(Regime.LCC, "T3", predicted_exponent=(0.6, 0.5))
