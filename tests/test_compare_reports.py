"""``tools/compare_reports.py diff`` on two hand-made run directories."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_reports", ROOT / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _check(name, deviation, tolerance, passed=True):
    return {"name": name, "deviation": f"{deviation:.17e}", "tolerance": f"{tolerance:.17e}",
            "passed": passed}


def _run_dir(root: Path, reports: dict) -> Path:
    records = {}
    for key, checks in reports.items():
        path = root / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"title": "t", "status": "pass", "detail": "", "provenance": {}, "checks": checks}
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))
        records[key] = {"command": "verify-main", "exit": 0, "check": None, "known_fault": False}
    (root / "commands.json").write_text(json.dumps(records))
    return root


def test_digits_only_outputs_show_their_headroom(tmp_path, capsys):
    same = [_check("a", 1e-12, 1e-9)]
    first = _run_dir(tmp_path / "a", {
        "w/00": same,
        "w/01": [_check("a", 2e-13, 1e-9), _check("b", 5e-10, 1e-9),
                 _check("c", 3e-9, 1e-9, passed=False), _check("d", -1.0, 0.0)],
    })
    second = _run_dir(tmp_path / "b", {
        "w/00": same,
        "w/01": [_check("a", 7e-10, 1e-9), _check("b", 1e-10, 1e-9),
                 _check("c", 5e-9, 1e-9, passed=False), _check("d", -2.0, 0.0)],
    })
    assert compare_reports.diff(first, second) == 0
    out = capsys.readouterr().out.splitlines()
    # the failing check and the zero tolerance do not count
    assert out[0] == ("w/01 (verify-main): deviation digits only; largest passing "
                      "deviation/tolerance 5.0e-01 -> 7.0e-01")
    assert out[1].endswith("0 differ in exit code, verdict, status, detail, check names or pass flags; "
                           "1 outputs byte-identical")
    assert out[2] == ("1 outputs differ only in digits; largest passing deviation/tolerance "
                      "over them 5.0e-01 -> 7.0e-01")


def test_changed_dimension_in_a_detail_is_a_difference(tmp_path, capsys):
    """Numbers in exponent form may move in a detail or the provenance; a
    realized dimension written as an integer may not."""
    def run(root, detail, tol):
        _run_dir(root, {"w/00": [_check("a", 1e-12, 1e-9)]})
        doc = json.loads((root / "w/00.json").read_text())
        doc.update(detail=detail, provenance={"tol": tol})
        (root / "w/00.json").write_text(json.dumps(doc))
        return root

    first = run(tmp_path / "a", "realized dimension 8 from 4 x 4; gap 1.5e-12", "1.0e-09")
    moved = run(tmp_path / "b", "realized dimension 8 from 4 x 4; gap 2.5e-12", "1.00000001e-09")
    assert compare_reports.diff(first, moved) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "w/00 (verify-main): deviation digits and exponent-form numbers only; "
        "largest passing deviation/tolerance 1.0e-03 -> 1.0e-03")
    grown = run(tmp_path / "c", "realized dimension 10 from 4 x 4; gap 1.5e-12", "1.0e-09")
    assert compare_reports.diff(first, grown) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w/00 (verify-main): detail changed beyond exponent-form numbers"
    assert out[1].startswith("1 commands: 1 differ in exit code, verdict, status, detail,")


def test_flipped_flag_is_a_difference_without_headroom(tmp_path, capsys):
    first = _run_dir(tmp_path / "a", {"w/00": [_check("a", 1e-12, 1e-9)]})
    second = _run_dir(tmp_path / "b", {"w/00": [_check("a", 2e-9, 1e-9, passed=False)]})
    assert compare_reports.diff(first, second) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w/00 (verify-main): pass flags differ on ['a']"
    assert len(out) == 2


def test_family_that_newly_reads_zero_is_a_difference(tmp_path, capsys):
    """A family whose deviations all read exactly 0.0 in the second run but not
    in the first is listed with its indices read as ``*`` and counts as a
    difference; one that was 0.0 already, or is not 0.0 everywhere, is not."""
    def checks(t1, t2, flag):
        return [_check("coherence[1,2,1]", t1, 1e-9), _check("coherence[1,1,2]", t2, 1e-9),
                _check("gram-positive", 1e-15, 1e-9), _check("left-faithful[3]", flag, 0.0)]

    first = _run_dir(tmp_path / "a", {"w/00": checks(1e-15, 0.0, 0.0)})
    second = _run_dir(tmp_path / "b", {"w/00": checks(0.0, 0.0, 0.0)})
    assert compare_reports.diff(first, second) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == ("1 check families read exactly 0.0 on every output of the second run "
                      "only: ['coherence[*,*,*]']")
    assert out[2].endswith("0 differ in exit code, verdict, status, detail, check names or pass flags; "
                           "0 outputs byte-identical")
    third = _run_dir(tmp_path / "c", {"w/00": checks(0.0, 1e-16, 0.0)})
    assert compare_reports.diff(first, third) == 0


def test_newly_zero_families_show_their_first_run_deviation(tmp_path, capsys):
    """Each family that newly reads 0.0 is printed last with its largest
    |deviation| in the first run, so one at its floor shows apart from one
    that read rounding-sized deviations; a NaN counts as the largest."""
    first = _run_dir(tmp_path / "a", {
        "w/00": [_check("commute", 1.8e-16, 1e-9), _check("dominated[1]", 5.3e-47, 1e-9)],
        "w/01": [_check("commute", 0.0, 1e-9), _check("dominated[2]", -2.5e-32, 1e-9),
                 _check("star", float("nan"), 1e-9, passed=False)],
    })
    second = _run_dir(tmp_path / "b", {
        "w/00": [_check("commute", 0.0, 1e-9), _check("dominated[1]", 0.0, 1e-9)],
        "w/01": [_check("commute", 0.0, 1e-9), _check("dominated[2]", 0.0, 1e-9),
                 _check("star", 0.0, 1e-9, passed=False)],
    })
    assert compare_reports.diff(first, second) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "commute: largest |deviation| 1.8e-16 in the first run, 0.0 in the second",
        "dominated[*]: largest |deviation| 2.5e-32 in the first run, 0.0 in the second",
        "star: largest |deviation| nan in the first run, 0.0 in the second",
    ]


def test_reordered_checks_name_the_first_that_moved(tmp_path, capsys):
    a, b, c = (_check(n, 1e-12, 1e-9) for n in "abc")
    first = _run_dir(tmp_path / "a", {"w/00": [a, b, c], "w/01": [a, b]})
    second = _run_dir(tmp_path / "b", {"w/00": [a, c, b], "w/01": [a, b, b]})
    assert compare_reports.diff(first, second) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w/00 (verify-main): check names differ in order or count, first at 'b'"
    assert out[1] == "w/01 (verify-main): check names differ in order or count, first at 'b'"


def test_outputs_that_are_not_reports_show_a_numbers_only_change(tmp_path, capsys):
    """A ``generate`` output whose structure and strings agree differs in numbers
    only; one whose structure differs is only "output differs"."""
    docs = {
        "a": {"w/00": {"m": [[1.0, 0.25]], "name": "E"}, "w/01": {"m": [1.0]}},
        "b": {"w/00": {"m": [[1.0, 0.251]], "name": "E"}, "w/01": {"m": [1.0, 2.0]}},
    }
    for side, outputs in docs.items():
        records = {}
        for key, doc in outputs.items():
            path = tmp_path / side / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
            records[key] = {"command": "generate", "exit": 0, "check": None, "known_fault": False}
        (tmp_path / side / "commands.json").write_text(json.dumps(records))
    assert compare_reports.diff(tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w/00 (generate): numbers only, largest |difference| 1.0e-03"
    assert out[1] == "w/01 (generate): output differs"


def test_outputs_that_differ_only_in_numbers_are_counted_apart(tmp_path, capsys):
    """A ``basis`` output whose adjoint digits moved is not counted among the
    commands that differ in exit code, verdict or checks: it has a summary
    line of its own with the largest difference, and still sets the exit
    status; an unchanged report beside it stays byte-identical."""
    for side, adjoint in (("a", 0.5), ("b", 0.5 + 6.7e-16)):
        root = _run_dir(tmp_path / side, {"w/00": [_check("a", 1e-12, 1e-9)]})
        (root / "w/01.json").write_text(json.dumps({"ops": [{"matrix": [1.0], "adjoint": [adjoint]}]}))
        records = json.loads((root / "commands.json").read_text())
        records["w/01"] = {"command": "basis", "exit": 0, "check": None, "known_fault": False}
        (root / "commands.json").write_text(json.dumps(records))
    assert compare_reports.diff(tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "w/01 (basis): numbers only, largest |difference| 6.7e-16",
        "2 commands: 0 differ in exit code, verdict, status, detail, check names or pass flags; "
        "1 outputs byte-identical",
        "1 outputs that are not reports differ only in numbers; largest |difference| over them 6.7e-16",
    ]
