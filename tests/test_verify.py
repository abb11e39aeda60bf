import io
from xml.etree import ElementTree

import numpy as np
import pytest

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


def _element_tree_junit(results, path):
    """The JUnit report as ``xml.etree`` writes it: the reference for
    ``write_junit``."""
    suite = ElementTree.Element(
        "testsuite",
        name="jacobispec.verify",
        tests=str(len(results)),
        failures=str(sum(not r.passed for r in results)),
        time=f"{sum(r.seconds for r in results):.3f}",
    )
    for r in results:
        case = ElementTree.SubElement(
            suite, "testcase", classname="verify", name=r.name,
            time=f"{r.seconds:.3f}",
        )
        if not r.passed:
            failure = ElementTree.SubElement(
                case, "failure", message=f"observed {r.observed}; expected {r.expected}"
            )
            failure.text = r.line()
    tree = ElementTree.ElementTree(suite)
    ElementTree.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)


@pytest.mark.parametrize("failing", [False, True])
def test_junit_bytes_match_element_tree(tmp_path, failing):
    results = [
        verify.CheckResult(f"c{i:02d}_check", True, f"x = {i}", "x near i", 0.001 * i)
        for i in range(1, 15)
    ]
    if failing:
        results[3] = verify.CheckResult(
            "c04_bad", False, 'a & b < c > d "e"\nf\tg\rh', "x < 1 & y > 2", 1.25
        )
        results.append(
            verify.CheckResult("c15_bad", False, "raised ValueError('<&>')", "no exception", 0.0)
        )
    streams = io.StringIO(), io.StringIO()
    verify.write_junit(results, streams[0])
    _element_tree_junit(results, streams[1])
    assert streams[0].getvalue() == streams[1].getvalue()
    paths = tmp_path / "ours.xml", tmp_path / "etree.xml"
    verify.write_junit(results, paths[0])
    _element_tree_junit(results, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


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
