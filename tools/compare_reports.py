"""Run every benchmark command of a source tree, or compare two such runs.

Usage, from the root of a source checkout:

    python3 tools/compare_reports.py run <tree> <out-dir> --seed 0
    python3 tools/compare_reports.py diff <out-dir-a> <out-dir-b>

``run`` imports ``corrkit`` from ``<tree>/src`` and the workload definitions
from this checkout's ``perfbench/workloads.py``, builds the three benchmark
workloads for the seed under ``<out-dir>/work``, runs each workload's
warm-up commands and then every benchmark command once, with one BLAS
thread, and copies each command's machine report to
``<out-dir>/<workload>/<index>.json``.  ``<out-dir>/commands.json`` records
each command's exit code, the benchmark's verdict on it and whether a
failure is the workload's known fault.

``diff`` lists every command whose exit code, benchmark verdict, known-fault
flag, report status, detail, provenance, title, check names or pass flags
differ between two runs, and counts the outputs that are byte-identical.
Deviation digits are not compared, nor any other number written in exponent
form; a detail that differs in anything else (a realized dimension, a rank, a
word) is a difference.  For each output that differs only in such digits, it
prints each run's largest deviation/tolerance ratio over the passing checks,
so the headroom of a "digits only" change shows.  An output that is not a
report (``generate``, ``basis``) and differs still counts toward the exit
status: when its JSON structure and its non-numeric values agree, its line
says "numbers only" with the largest absolute difference of a number, and it
is counted on a line of its own, not among the commands that differ in exit
code, verdict or checks; any other change of it is such a difference.
It also lists every check family (a check name with each run of digits read
as ``*``, e.g. ``coherence[*,*,*]``) whose deviation reads exactly 0.0 on
every output of the second run but not of the first: a check that has come to
hold by construction, and so no longer tests anything, counts as a difference.
Each such family is printed last with the largest |deviation| it read in the
first run, so a family that sat at its floor (say 1e-32) shows apart from one
that read rounding-sized deviations before.
The exit status is 1 when any command or family differs, else 0.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import sys
from itertools import zip_longest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ("dilation-m9", "powers", "shipped-sweep")


def _workloads(tree: Path):
    """``perfbench/workloads.py`` by path, with ``corrkit`` from ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(PERFBENCH)]
    import corrkit

    if Path(corrkit.__file__).resolve().parent != (tree / "src" / "corrkit").resolve():
        raise SystemExit(f"imported corrkit from {corrkit.__file__}, not from {tree}")
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tree: Path, out: Path, seed: int) -> int:
    workloads = _workloads(tree)
    import corrkit.cli

    def invoke(argv, path) -> int | str:
        try:
            return corrkit.cli.main(list(argv) + ["--report", "machine", "--out", str(path)])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - recorded as the outcome
            return f"raised {exc!r}"

    out.mkdir(parents=True, exist_ok=True)
    records = {}
    for name in NAMES:
        work = out / "work" / name
        work.mkdir(parents=True, exist_ok=True)
        (out / name).mkdir(exist_ok=True)
        workload = workloads.build(name, tree, work, seed)
        for argv, path in workload.warmup:
            invoke(argv, path)
        for i, cmd in enumerate(workload.commands):
            code = invoke(cmd.argv, cmd.out)
            verdict = known = None
            if isinstance(code, int):
                try:
                    verdict = cmd.check(code, cmd.out)
                    known = bool(cmd.known_fault and cmd.known_fault(code, cmd.out))
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    verdict = f"output unreadable: {exc!r}"
                if cmd.out.is_file():
                    shutil.copyfile(cmd.out, out / name / f"{i:02d}.json")
            key = f"{name}/{i:02d}"
            records[key] = {"command": cmd.argv[0], "exit": code, "check": verdict,
                            "known_fault": known}
    with open(out / "commands.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    failed = sum(r["check"] is not None for r in records.values())
    print(f"{len(records)} commands run, {failed} with a failed benchmark check")
    return 0


def _report(path: Path):
    """(bytes, parsed report or None) of one output; (None, None) if missing."""
    if not path.is_file():
        return None, None
    data = path.read_bytes()
    try:
        doc = json.loads(data)
    except ValueError:
        return data, None
    return data, doc if isinstance(doc, dict) and "checks" in doc else None


def _outline(doc) -> tuple:
    return doc["status"], [(c["name"], c["passed"]) for c in doc["checks"]]


def _headroom(doc) -> float:
    """Largest deviation/tolerance ratio over the passing checks with a
    positive tolerance; 0 when there are none."""
    return max((float(c["deviation"]) / float(c["tolerance"]) for c in doc["checks"]
                if c["passed"] and float(c["tolerance"]) > 0.0), default=0.0)


def _largest_gap(a, b) -> float | None:
    """Largest |difference| between the numbers of two JSON values, or
    ``None`` when their structure or any non-numeric value differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = list(zip(a, b))
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return abs(a - b)
    else:
        return 0.0 if a == b else None
    gaps = [_largest_gap(x, y) for x, y in pairs]
    return None if None in gaps else max(gaps, default=0.0)


def _output_gap(bytes_a: bytes, bytes_b: bytes) -> float | None:
    """Largest |difference| between the numbers of two outputs that are not
    both reports, or ``None`` when they differ in anything else."""
    try:
        return _largest_gap(json.loads(bytes_a), json.loads(bytes_b))
    except ValueError:
        return None


def _fold_zeros(largest: dict, doc) -> None:
    """Fold a report into ``largest``: per check family (digits read as ``*``),
    the largest |deviation| seen so far, NaN once any reads NaN; it is 0.0
    exactly when every deviation reads 0.0."""
    for c in doc["checks"]:
        family = re.sub(r"\d+", "*", c["name"])
        seen, dev = largest.get(family, 0.0), abs(float(c["deviation"]))
        largest[family] = seen if seen != seen or dev <= seen else dev


def _masked(value) -> str:
    """A JSON value as text with every number written in exponent form (a
    deviation, a tolerance, a measured value in a detail) read as ``*``; a
    dimension, rank or count written as an integer stays."""
    return re.sub(r"[-+]?\d+(?:\.\d*)?[eE][-+]?\d+", "*", json.dumps(value, sort_keys=True))


def diff(first: Path, second: Path) -> int:
    runs = []
    for root in (first, second):
        with open(root / "commands.json", "r", encoding="utf-8") as fh:
            runs.append(json.load(fh))
    keys = sorted(set(runs[0]) | set(runs[1]))
    identical, differing, digits, numbers = 0, [], [], []
    worst = [0.0, 0.0]
    largest = [{}, {}]
    for key in keys:
        a, b = runs[0].get(key), runs[1].get(key)
        if a is None or b is None:
            differing.append(f"{key}: run only in {first if b is None else second}")
            continue
        reasons = [f"{field} {a[field]!r} -> {b[field]!r}"
                   for field in ("command", "exit", "check", "known_fault") if a[field] != b[field]]
        (bytes_a, doc_a), (bytes_b, doc_b) = (_report(root / f"{key}.json") for root in (first, second))
        for side, doc in zip(largest, (doc_a, doc_b)):
            if doc is not None:
                _fold_zeros(side, doc)
        if bytes_a is not None and bytes_a == bytes_b:
            identical += 1
        elif doc_a is not None and doc_b is not None:
            (status_a, checks_a), (status_b, checks_b) = _outline(doc_a), _outline(doc_b)
            if status_a != status_b:
                reasons.append(f"status {status_a} -> {status_b}")
            names_a, names_b = [n for n, _ in checks_a], [n for n, _ in checks_b]
            if names_a != names_b:
                gone, new = sorted(set(names_a) - set(names_b)), sorted(set(names_b) - set(names_a))
                if gone or new:
                    reasons.append(f"check names differ (-{gone[:5]} +{new[:5]})")
                else:
                    moved = next(a or b for a, b in zip_longest(names_a, names_b) if a != b)
                    reasons.append(f"check names differ in order or count, first at {moved!r}")
            elif checks_a != checks_b:
                flips = [n for (n, p), (_, q) in zip(checks_a, checks_b) if p != q]
                reasons.append(f"pass flags differ on {flips[:5]}")
            fields = sorted((doc_a.keys() | doc_b.keys()) - {"checks", "status"})
            changed = [f for f in fields if _masked(doc_a.get(f)) != _masked(doc_b.get(f))]
            if changed:
                reasons.append(f"{' and '.join(changed)} changed beyond exponent-form numbers")
            if not reasons:
                ratios = _headroom(doc_a), _headroom(doc_b)
                worst = [max(w, r) for w, r in zip(worst, ratios)]
                what = ("deviation digits" if all(doc_a.get(f) == doc_b.get(f) for f in fields)
                        else "deviation digits and exponent-form numbers")
                digits.append(f"{key} ({a['command']}): {what} only; largest passing "
                              f"deviation/tolerance {ratios[0]:.1e} -> {ratios[1]:.1e}")
        elif bytes_a != bytes_b:
            gap = _output_gap(bytes_a, bytes_b) if bytes_a and bytes_b else None
            if gap is None:
                reasons.append("output differs" if bytes_a and bytes_b else "output missing")
            elif reasons:
                reasons.append(f"numbers only, largest |difference| {gap:.1e}")
            else:
                numbers.append((f"{key} ({a['command']}): numbers only, largest |difference| {gap:.1e}", gap))
        if reasons:
            differing.append(f"{key} ({a['command']}): " + "; ".join(reasons))
    zeroed = sorted(f for f, dev in largest[1].items() if dev == 0.0 and largest[0].get(f, 0.0) != 0.0)
    for line in sorted(differing + digits + [line for line, _ in numbers]):
        print(line)
    if zeroed:
        print(f"{len(zeroed)} check families read exactly 0.0 on every output of the second "
              f"run only: {zeroed}")
    print(f"{len(keys)} commands: {len(differing)} differ in exit code, verdict, status, "
          f"detail, check names or pass flags; {identical} outputs byte-identical")
    if numbers:
        print(f"{len(numbers)} outputs that are not reports differ only in numbers; largest "
              f"|difference| over them {max(gap for _, gap in numbers):.1e}")
    if digits:
        print(f"{len(digits)} outputs differ only in digits; largest passing deviation/tolerance "
              f"over them {worst[0]:.1e} -> {worst[1]:.1e}")
    for family in zeroed:
        print(f"{family}: largest |deviation| {largest[0][family]:.1e} in the first run, "
              "0.0 in the second")
    return 1 if differing or zeroed or numbers else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run", help="run every benchmark command of a source tree")
    p.add_argument("tree", type=Path, help="root of a source checkout")
    p.add_argument("out", type=Path, help="directory for the reports")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        # before numpy is first imported, which happens in run
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        return run(args.tree.resolve(), args.out.resolve(), args.seed)
    return diff(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
