import numpy as np

from jacobispec import verify
from jacobispec.cli import main


def test_checkresult_line_format():
    r = verify.CheckResult("demo", True, "x = 1", "x near 1", 0.5)
    assert r.line().startswith("[PASS] demo:")


def test_junit_records_failures(tmp_path):
    results = [
        verify.CheckResult("good", True, "ok", "ok", 0.1),
        verify.CheckResult("bad", False, "observed 3", "expected 2", 0.2),
    ]
    path = tmp_path / "junit.xml"
    verify.write_junit(results, path)
    xml = path.read_text()
    assert 'tests="2"' in xml and 'failures="1"' in xml
    assert "<failure" in xml and "observed 3" in xml


def test_failing_check_gives_exit_one(tmp_path, monkeypatch, capsys):
    def broken():
        return False, "observed nonsense", "expected sanity"

    monkeypatch.setattr(verify, "CHECKS", [("c99_broken", broken)])
    rc = main(["verify", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] c99_broken" in out
    assert 'failures="1"' in (tmp_path / "verify.xml").read_text()


def test_golden_models_materialize(tmp_path):
    # the five golden models cover every regime the checks exercise
    assert verify._seq("m1", 64).rho[3] == 16.0
    assert verify._seq("m3", 64).q[5] == -250.0  # -2 n^3 at n = 5
    assert np.all(verify.golden_m5_sequence(64).rho == 1.0)
