import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jacobispec import cli
from jacobispec.cli import _MAX_SIZE, load_config, main
from jacobispec.params import (
    JacobiSequence,
    descriptor_from_json,
    materialize,
    sequence_to_csv,
)


M1 = {"beta1": 2, "beta2": 0, "x0": 1, "y0": 1, "x1": 2, "x2": 1, "order": "second"}
NOISE = {"kind": "seeded_noise", "amplitude": 0.1, "seed": 1}


def write_config(tmp_path, name="cfg.json", **overrides):
    """A config of M1 with keys replaced by *overrides*; None drops a key."""
    cfg = {
        "descriptor": M1,
        "N": [100, 200, 400],
        "r_grid": {"r_min": 5.0, "r_max": 500.0, "points": 10},
    }
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "content, blob_id",
    [
        (b"", "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"),
        (b"hello\n", "ce013625030ba8dba906f756967f9e9ca394464a"),
    ],
)
def test_config_sha1_is_the_git_blob_id(content, blob_id):
    # ``git hash-object`` ids: a change of SHA-1 provider must not move config_sha1
    assert cli._git_blob_sha1(content) == blob_id


class TestClassifyCommand:
    def test_prints_case_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "T1(ii): lcc, exponent 0.5" in out
        doc = json.loads((tmp_path / "o" / "classification.json").read_text())
        assert doc["classification"]["regime"] == "lcc"
        assert {c["name"] for c in doc["criteria"]} == {
            "wouk", "carleman", "berezanskii"
        }
        assert doc["tool"]["name"] == "jacobispec"
        assert len(doc["inputs"]["config_sha1"]) == 40

    def test_undetermined_exceptional_first_order(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            descriptor={
                "beta1": 3, "beta2": 3, "x0": 1, "y0": 2, "order": "first",
                "remainder": {"kind": "deterministic", "amplitude": 0.5},
            },
        )
        rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "Undetermined" in capsys.readouterr().out

    def test_external_sequence_gets_criteria_only(self, tmp_path, capsys):
        seq = JacobiSequence(rho=np.ones(400), q=np.zeros(400))
        seq_path = tmp_path / "seq.csv"
        sequence_to_csv(seq, seq_path)
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["descriptor"]
        doc["sequence_file"] = str(seq_path)
        cfg.write_text(json.dumps(doc))
        rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "criterion verdicts only" in out
        report = json.loads((tmp_path / "o" / "classification.json").read_text())
        assert "classification" not in report
        assert "sequence_sha1" in report["inputs"]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["classify", "--config", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": [10, 20, 30]}))
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_invalid_descriptor_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, descriptor={"beta1": 1, "beta2": 0, "x0": 0, "y0": 1}
        )
        assert main(["classify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"tolerances": {"eig_tol": "abc"}}, "eig_tol"),
        ({"tolerances": {"eig_tol": -1e-9}}, "eig_tol"),
        ({"window": [5]}, "window"),
        ({"window": [20, 10]}, "window"),
        ({"window": [0, 10]}, "window"),
        ({"window": ["5", 100]}, "window"),
        ({"tolerances": [1e-9]}, "tolerances"),
        ({"r_grid": [10.0, 500.0]}, "r_grid"),
        ({"N": [100, 200, 1e400]}, "N"),
        ({"N": [100.7, 200]}, "N"),
        ({"N": [0, 200]}, "N"),
        ({"N": 400}, "N"),
        ({"rays": 16.5}, "rays"),
        ({"rays": "16"}, "rays"),
        ({"r_grid": {"r_min": 5.0, "r_max": 500.0, "points": 1e400}}, "points"),
        ({"r_grid": {"r_min": 5.0, "r_max": 500.0, "points": 10.0}}, "points"),
        ({"r_grid": {"r_min": 5.0, "r_max": 1e400, "points": 10}}, "r_max"),
        ({"r_grid": {"r_min": 5.0, "r_max": 10**400, "points": 10}}, "r_max"),
        ({"r_grid": {"r_min": "5", "r_max": 500.0, "points": 10}}, "r_min"),
        ({"N": [100, 200, 10**400]}, "N"),
        ({"N": [100, 200, 10**12]}, "N"),
        ({"r_grid": {"r_min": 5.0, "r_max": 500.0, "points": 10**400}}, "points"),
        ({"r_grid": {"r_min": 5.0, "r_max": 500.0, "points": 10**12}}, "points"),
        ({"descriptor": {**M1, "remainder": 5}}, "remainder"),
        ({"descriptor": {**M1, "remainder": []}}, "remainder"),
        ({"descriptor": {**M1, "beta1": 1e400}}, "beta1"),
        ({"descriptor": {**M1, "x1": 10**400}}, "x1"),
        ({"descriptor": {**M1, "x1": "1e400"}}, "x1"),
        ({"descriptor": {**M1, "y1": True}}, "y1"),
        ({"descriptor": {**M1, "y1": "abc"}}, "y1"),
        ({"descriptor": {**M1, "remainder": {**NOISE, "seed": 1e400}}}, "seed"),
        ({"descriptor": {**M1, "remainder": {**NOISE, "seed": 1.5}}}, "seed"),
        ({"descriptor": {**M1, "remainder": {**NOISE, "seed": True}}}, "seed"),
        ({"descriptor": {**M1, "remainder": {**NOISE, "seed": -1}}}, "seed"),
        (
            {"descriptor": {**M1, "remainder": {**NOISE, "amplitude": 1e400}}},
            "amplitude",
        ),
        (
            {"descriptor": {**M1, "remainder": {**NOISE, "amplitude": "0.1"}}},
            "amplitude",
        ),
        ({"descriptor": {**M1, "x1": "1e-3000000"}}, "x1"),
        ({"descriptor": None, "sequence_file": 5}, "sequence_file"),
        ({"out": 5}, "out"),
        ({"out": "cfg.json"}, "output directory"),
        # misspelt keys, which were ignored in favour of the defaults
        ({"r_grid": {"rmax": 1e6}}, "rmax"),
        ({"tolerance": {"eig_tol": 1e-3}}, "tolerance"),
        ({"Ns": [10]}, "Ns"),
    ],
)
def test_malformed_config_key_exits_2(tmp_path, capsys, monkeypatch, overrides, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **overrides)
    # the config's own out is used where --out is not given
    out = [] if "out" in overrides else ["--out", str(tmp_path)]
    for command in ("spectrum", "growth"):
        assert main([command, "--config", str(cfg), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "spectrum", "growth"])
def test_negative_seed_override_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, descriptor={**M1, "remainder": NOISE})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be an integer >= 0\n"


@pytest.mark.parametrize("rays", [15, _MAX_SIZE + 1, 10**9])
def test_rays_out_of_range_rejected_before_any_work(tmp_path, rays):
    # load_config alone: an accepted 10**9 would allocate points x rays values
    with pytest.raises(ValueError, match="rays"):
        load_config(write_config(tmp_path, rays=rays))


class TestSpectrumCommand:
    def test_eigenvalue_at_the_lower_window_end_counts(self, tmp_path):
        # free matrix: J_1 has {0}, J_2 has {-1, 1}, J_3 has {-sqrt 2, 0, sqrt 2}
        seq_path = tmp_path / "free.csv"
        sequence_to_csv(JacobiSequence(rho=np.ones(3), q=np.zeros(3)), seq_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sequence_file": str(seq_path),
            "N": [1, 2, 3],
            "r_grid": {"r_min": 0.5, "r_max": 1.0, "points": 8},
        }))
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        per_n = json.loads((out / "spectrum_report.json").read_text())["per_N"]
        assert [per_n[n]["count_in_window"] for n in ("1", "2", "3")] == [1, 2, 1]
        assert [per_n[n]["counts"][-1] for n in ("1", "2", "3")] == [1, 2, 1]

    def test_eigenvalue_pairs_closer_than_tol(self, tmp_path):
        # q in pairs 1e-10 apart with rho = 1e-12, far inside the default
        # tol of 1e-8: each pair is cut until its eigenvalues are apart,
        # where it was stopped at width <= tol and both got one midpoint
        q = np.repeat(np.arange(1.0, 21.0), 2)
        q[1::2] += 1e-10
        seq = JacobiSequence(rho=np.full(40, 1e-12), q=q)
        seq_path = tmp_path / "pairs.csv"
        sequence_to_csv(seq, seq_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sequence_file": str(seq_path),
            "N": [10, 20, 40],
            "r_grid": {"r_min": 1.0, "r_max": 100.0, "points": 8},
        }))
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        for N in (10, 20, 40):
            rows = (out / f"eigenvalues_N{N}.csv").read_text().splitlines()[1:]
            ev = np.array([float(row.split(",")[1]) for row in rows])
            off = np.diag(seq.rho[: N - 1], 1)
            dense = np.linalg.eigvalsh(np.diag(q[:N]) + off + off.T)
            assert ev.size == N and np.all(np.diff(ev) > 0)
            assert np.all(np.abs(ev - dense) <= 1e-8)

    def test_writes_curves(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "spec"
        rc = main(["spectrum", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        for N in (100, 200, 400):
            ev = (out / f"eigenvalues_N{N}.csv").read_text().splitlines()
            assert ev[0] == "index,lambda"
            counts = (out / f"counting_N{N}.csv").read_text().splitlines()
            assert counts[0] == "r,count"
        report = json.loads((out / "spectrum_report.json").read_text())
        assert len(report["stabilization"]) == 10
        # low radii must stabilize for this strongly lcc model
        assert report["stabilization"][0]["stabilized"]

    def test_too_few_dimensions_write_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=[300, 600])
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "three strictly increasing dimensions" in err and err.count("\n") == 1
        assert list(out.iterdir()) == []


    def test_equal_eigenvalues_fail_before_any_write(self, tmp_path, capsys):
        # rho_1 = 1e-200 splits J_4 into two copies of [[0, 1], [1, 1]]: its
        # eigenvalues (1 -+ sqrt 5) / 2 are each double at float resolution
        seq_path = tmp_path / "split.csv"
        sequence_to_csv(
            JacobiSequence(rho=np.array([1.0, 1e-200, 1.0, 1.0]), q=np.array([0.0, 1, 0, 1])),
            seq_path,
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sequence_file": str(seq_path), "N": [2, 3, 4], "tolerances": {"eig_tol": 1e-14},
        }))
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error: truncation eigenvalue -0.618033988749" in err
        assert "has multiplicity 2 at float resolution; no tol separates" in err
        assert list(out.iterdir()) == []


class TestGrowthCommand:
    def test_report_contains_all_routes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "g"
        rc = main(["growth", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "growth_report.json").read_text())
        assert doc["coefficient_route"]["order"] == pytest.approx(0.5, abs=0.05)
        assert doc["max_modulus_route"]["order"] == pytest.approx(0.5, abs=0.1)
        fit = doc["max_modulus_route"]["fit"]
        assert set(fit) == {"stderr", "r_squared", "window", "points"}
        assert fit["points"] == 5
        assert fit["window"] == [np.geomspace(5.0, 500.0, 10)[5], 500.0]
        assert doc["classification"]["case_label"] == "T1(ii)"
        assert doc["wronskian_residual"] < 1e-8
        assert "majorant_gap" in doc
        assert (out / "b_zeros.csv").exists()
        lines = (out / "log_max_modulus.csv").read_text().splitlines()
        assert lines[0] == "r,log_max_modulus" and len(lines) == 11

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["growth", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["growth", "--config", str(cfg), "--out", str(out2)]) == 0
        assert main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["spectrum", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in (
            "growth_report.json",
            "b_zeros.csv",
            "log_max_modulus.csv",
            "spectrum_report.json",
            "eigenvalues_N400.csv",
            "counting_N400.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_external_sequence_growth(self, tmp_path):
        # same numbers as the quadratic model but with no descriptor: the
        # fit routes still run, predictions and majorant are absent
        n = np.arange(400)
        seq = JacobiSequence(rho=(n + 1.0) ** 2, q=np.ones(400))
        seq_path = tmp_path / "seq.csv"
        sequence_to_csv(seq, seq_path)
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["descriptor"]
        doc["sequence_file"] = str(seq_path)
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "ext"
        assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "growth_report.json").read_text())
        assert report["coefficient_route"]["order"] == pytest.approx(0.5, abs=0.05)
        assert "classification" not in report
        assert "majorant_gap" not in report

    def test_exceptional_model_reports_deltas(self, tmp_path):
        cfg = write_config(
            tmp_path,
            descriptor={
                "beta1": 3, "beta2": 3, "x0": 1, "y0": -2, "x1": 2,
                "x2": 0, "y2": 0, "order": "second",
            },
            N=[200, 400],
            r_grid={"r_min": 10.0, "r_max": 2e4, "points": 10},
        )
        out = tmp_path / "exc"
        assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "growth_report.json").read_text())
        assert "delta_exponents" in doc
        assert doc["classification"]["case_label"] == "T2(ii)"


# valid descriptors whose exact quantities leave the binary64 range: |y0|/x0
# in the Wouk verdict, and d of the double-root classification
_HUGE_RATIO = {"beta1": 0, "beta2": 0, "x0": 2.2250738585e-313, "y0": 1}
_HUGE_D_X1 = {
    "beta1": 3, "beta2": 3, "x0": 1e-300, "y0": -2e-300, "x1": 1e300, "y1": 0, "x2": 0, "y2": 0,
}
_HUGE_D_X2 = {**_HUGE_D_X1, "x1": 0, "x2": 1e300}
# rho overflows binary64 from n = 35, and from n = 18
_HUGE_RHO_BETA = {"beta1": 200, "beta2": 0, "x0": 1, "y0": 1}
_HUGE_RHO_X1 = {**M1, "x1": "1e307"}


class TestReportCommand:
    def test_combined_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "rep"
        rc = main(["report", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        combined = json.loads((out / "report.json").read_text())
        assert set(combined) == {
            "classification", "spectrum_report", "growth_report"
        }
        # each section is the report its command wrote in the same run
        for name, section in combined.items():
            assert section == json.loads((out / f"{name}.json").read_text())

    def test_too_few_dimensions_write_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=[300, 600])
        out = tmp_path / "rep"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
        assert "three strictly increasing" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # T1(ii) lpc: the zero route's sign check used to fail on 1942 of 2000
    # brackets (exit 2), losing the classification and spectrum results
    LPC = {"beta1": "0.5", "beta2": "0.5", "x0": 2, "y0": 3.9058547781816184,
           "x1": -1, "order": "first"}

    def test_lpc_descriptor_skips_the_zero_route(self, tmp_path, capsys):
        cfg = tmp_path / "lpc.json"
        cfg.write_text(json.dumps({"descriptor": self.LPC}))
        out = tmp_path / "rep"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert "zero route skipped (lpc)" in capsys.readouterr().out
        growth = json.loads((out / "report.json").read_text())["growth_report"]
        assert growth["classification"]["regime"] == "lpc"
        assert set(growth["zero_route"]) == {"skipped"}
        assert "growth_estimate" not in growth
        assert not (out / "b_zeros.csv").exists()
        assert (out / "spectrum_report.json").exists()

    def test_lpc_descriptor_skips_the_max_modulus_route(self, tmp_path, capsys):
        # T1(ii) lpc whose max-modulus values do not increase: the route's fit
        # used to raise, and report exited 2
        desc = {"beta1": -0.040228462587983405, "y0": 4, "beta2": "-2", "x0": "1e-3",
                "y2": 3.1757025856733474, "remainder": {}}
        cfg = tmp_path / "lpc.json"
        cfg.write_text(json.dumps({"descriptor": desc}))
        out = tmp_path / "rep"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        assert "max-modulus route and zero route skipped (lpc)" in capsys.readouterr().out
        growth = json.loads((out / "report.json").read_text())["growth_report"]
        assert growth["classification"]["case_label"] == "T1(ii)"
        assert set(growth["max_modulus_route"]) == set(growth["zero_route"]) == {"skipped"}
        assert not (out / "log_max_modulus.csv").exists()

    @pytest.mark.parametrize("command", ["growth", "report"])
    def test_undetermined_descriptor_skips_both_b_routes(self, tmp_path, capsys, command):
        # exceptional family with first-order data and a first-order
        # remainder: P^2 + Q^2 reaches ~1e124 at n = 2000, and the
        # max-modulus fit used to raise (exit 2)
        desc = {
            "beta1": 3, "beta2": 3, "x0": 1, "y0": -2,
            "remainder": {"kind": "deterministic", "amplitude": 0.5},
        }
        cfg = tmp_path / "undetermined.json"
        cfg.write_text(json.dumps({"descriptor": desc}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "max-modulus route and zero route skipped (undetermined)" in printed
        growth = json.loads((out / "growth_report.json").read_text())
        assert growth["classification"]["regime"] == "undetermined"
        assert set(growth["max_modulus_route"]) == set(growth["zero_route"]) == {"skipped"}
        assert "undetermined" in growth["zero_route"]["skipped"]
        assert not (out / "log_max_modulus.csv").exists()
        assert not (out / "b_zeros.csv").exists()

    @pytest.mark.parametrize("command", ["classify", "report"])
    @pytest.mark.parametrize("desc", [_HUGE_RATIO, _HUGE_D_X1, _HUGE_D_X2])
    def test_quantity_beyond_binary64_exits_2(self, tmp_path, capsys, command, desc):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"descriptor": desc}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "binary64" in err and err.count("\n") == 1

    def test_lpc_sequence_file_keeps_the_sign_check(self, tmp_path, capsys):
        # the same numbers with no descriptor carry no classification
        seq_path = tmp_path / "seq.csv"
        sequence_to_csv(materialize(descriptor_from_json(self.LPC), 2000), seq_path)
        cfg = tmp_path / "seq.json"
        cfg.write_text(json.dumps({"sequence_file": str(seq_path)}))
        out = tmp_path / "g"
        assert main(["growth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no sign change" in capsys.readouterr().err


class TestSeedOverride:
    def test_seed_flag_changes_noise_stream(self, tmp_path):
        desc = {
            "beta1": 2, "beta2": 0, "x0": 1, "y0": 1,
            "remainder": {"kind": "seeded_noise", "amplitude": 0.1, "seed": 1},
        }
        cfg = write_config(tmp_path, descriptor=desc)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["classify", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(
            ["classify", "--config", str(cfg), "--out", str(out2), "--seed", "99"]
        ) == 0
        d1 = json.loads((out1 / "classification.json").read_text())
        d2 = json.loads((out2 / "classification.json").read_text())
        assert d1["descriptor"]["remainder"]["seed"] == 1
        assert d2["descriptor"]["remainder"]["seed"] == 99


class TestVerifyCommand:
    def test_full_suite_passes_and_writes_junit(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert text.count("[PASS]") == 14
        xml = (out / "verify.xml").read_text()
        assert 'tests="14"' in xml and 'failures="0"' in xml


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    # the thread-pool flag is gone; it is an unknown argument now
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["growth", "--config", str(cfg), "--out", str(tmp_path), "--jobs", "2"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# config fuzzing: any JSON document gets exit code 0, 1 or 2, never a
# traceback
# ---------------------------------------------------------------------------

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**3), 10**3), st.sampled_from([10**400, -1]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "1/2", "0.5", "2", "", "first", "second"]),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _field(likely):
    """A config value: one a user might write, or any JSON one time in ten."""
    return st.integers(0, 9).flatmap(lambda i: _JSON if i == 0 else likely)


_NUMBER = st.one_of(
    st.integers(-1, 4), st.floats(-1.0, 4.0), st.sampled_from(["1.5", "0.5", "-2", "1e-3"]),
)
_REMAINDER = st.fixed_dictionaries(
    {},
    optional={
        "kind": _field(st.sampled_from(["none", "seeded_noise", "noise", "power"])),
        "amplitude": _field(st.floats(-1.0, 1.0)),
        "seed": _field(st.integers(0, 5)),
    },
)
_DESCRIPTOR = st.fixed_dictionaries(
    {key: _field(_NUMBER) for key in ("beta1", "beta2", "x0", "y0")},
    optional={
        **{key: _field(_NUMBER) for key in ("x1", "y1", "x2", "y2")},
        "order": _field(st.sampled_from(["first", "second", "1", "2"])),
        "remainder": _field(_REMAINDER),
    },
)
#: output directories, of which a file, a path under a file and a path
#: holding a NUL byte cannot be made
_OUT_PATHS = ["o", "p/q", "fuzz.json", "fuzz.json/o", "a\x00b"]
_OPTIONAL = {
    "N": _field(st.lists(st.integers(-2, 60), min_size=1, max_size=4)),
    "r_grid": _field(st.fixed_dictionaries({}, optional={
        "r_min": _field(st.floats(-1.0, 50.0)),
        "r_max": _field(st.floats(-1.0, 1e4)),
        "points": _field(st.integers(0, 40)),
    })),
    "window": _field(st.lists(st.integers(-1, 60), max_size=3)),
    "tolerances": _field(st.fixed_dictionaries({}, optional={
        "eig_tol": _field(st.floats(-1.0, 1.0)),
    })),
    "rays": _field(st.integers(0, 40)),
    "out": _field(st.sampled_from(_OUT_PATHS)),
}
#: a config with a descriptor, or one time in ten any object over the
#: config's keys
_CONFIG = st.integers(0, 9).flatmap(
    lambda i: st.fixed_dictionaries(
        {}, optional={**_OPTIONAL, "descriptor": _JSON, "sequence_file": _JSON}
    ) if i == 0 else st.fixed_dictionaries({"descriptor": _DESCRIPTOR}, optional=_OPTIONAL)
)


class TestConfigFuzzing:
    """Generated config documents, valid and not, with or without ``--out``
    and ``--seed``: ``classify`` runs them, ``spectrum`` and ``growth`` load
    them (their computation is stubbed), and every outcome is an exit code
    in {0, 1, 2} with at most a one-line message."""

    _ARGS = st.fixed_dictionaries({}, optional={
        "--out": st.sampled_from(_OUT_PATHS), "--seed": st.integers(-2, 2),
    })

    @staticmethod
    def run(tmp_path, capsys, doc, argv, args):
        (tmp_path / "fuzz.json").write_text(json.dumps(doc))
        argv = [*argv, "--config", "fuzz.json"]
        for key, value in args.items():
            argv += [key, str(value)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        assert "Traceback" not in err and err.count("\n") <= 1
        assert (rc == 2) == err.startswith("error: ")

    @given(doc=st.one_of(_CONFIG, _JSON), args=_ARGS)
    @example(doc={"descriptor": _HUGE_RATIO}, args={})
    @example(doc={"descriptor": _HUGE_D_X1}, args={})
    @example(doc={"descriptor": _HUGE_D_X2}, args={})
    @example(doc={"descriptor": _HUGE_RHO_BETA}, args={})
    @example(doc={"descriptor": _HUGE_RHO_X1}, args={})
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_classify(self, tmp_path, capsys, monkeypatch, doc, args):
        monkeypatch.chdir(tmp_path)
        self.run(tmp_path, capsys, doc, ["classify"], args)

    @given(doc=st.one_of(_CONFIG, _JSON), args=_ARGS,
           command=st.sampled_from(["spectrum", "growth"]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_spectrum_and_growth_load(self, tmp_path, capsys, monkeypatch, doc, args, command):
        monkeypatch.chdir(tmp_path)
        loaded = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg, out: loaded.append(cfg) or 0)
        self.run(tmp_path, capsys, doc, [command], args)
        assert all(isinstance(cfg, cli.ExperimentConfig) for cfg in loaded)
