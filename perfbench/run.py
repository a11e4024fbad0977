"""Verification benchmark for corrkit: time to a verdict through the CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dilation-m9 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --smoke               # oracle self-test, one pass each

Each operation is one ``corrkit.cli.main`` call with ``--report machine
--out <file>``; its output is checked against the oracles in ``oracles.py``
and the construction-derived outcomes in ``workloads.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from the span trace with ``--trace 1``).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: timings then do not depend on how a shared machine
# schedules BLAS workers, and report bytes do not depend on the thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path[:0] = [str(HERE), str(SRC)]
import oracles  # noqa: E402 - after the BLAS setting, which numpy reads on import
import workloads  # noqa: E402
from spans import NAMED, Tracer  # noqa: E402

SETUP_SAMPLES = 21
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import corrkit
from corrkit.instance import parse_instance
for path in sys.argv[2:]:
    parse_instance(path)
print(time.perf_counter() - start)
"""

# What reading a command's output can raise when the output is malformed.
OUTPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError)

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("checks_per_s", "1/s"), ("peak_rss_mb", "MB"))


def _per_layer_names() -> list[tuple[str, str]]:
    """BENCHMARK.json's per-layer metrics, each of which must be one that spans.py names."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        names = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    unknown = [n for n, _ in names if n not in NAMED]
    if unknown:
        raise ValueError(f"per-layer metrics that spans.NAMED does not list: {unknown}")
    return names


def setup_sample(files) -> float:
    """Wall time to import corrkit and parse every input, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(f) for f in files],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes over a workload's commands and checks every output."""

    def __init__(self, workload, tracer=None):
        import corrkit.cli

        self.cli = corrkit.cli
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.command_id = 0

    def _invoke(self, argv, out) -> int:
        # looked up on the module each time, so a traced pass reaches the wrapper
        return self.cli.main(list(argv) + ["--report", "machine", "--out", str(out)])

    def warm_up(self) -> None:
        for argv, out in self.workload.warmup:
            try:
                self._invoke(argv, out)
            except Exception as exc:  # noqa: BLE001 - the timed passes report it
                print(f"warm-up {argv[0]}: {exc!r}", file=sys.stderr)

    def run_pass(self, traced: bool, between=None) -> tuple[float, int]:
        """One pass; returns (seconds inside the CLI calls, checks decided).
        ``between`` is called, untimed, before each command."""
        elapsed = 0.0
        checks = 0
        for cmd in self.workload.commands:
            if between is not None:
                between()
            if traced:
                self.tracer.begin_command(self.command_id)
            start = time.perf_counter()
            try:
                code, error = self._invoke(cmd.argv, cmd.out), None
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - a raising command fails
                code, error = None, f"raised {exc!r}"
            elapsed += time.perf_counter() - start
            if traced:
                self.tracer.end_command()
            self.command_id += 1
            self.attempted += 1
            if error is None:
                try:
                    error = cmd.check(code, cmd.out)
                except OUTPUT_ERRORS as exc:
                    error = f"output unreadable: {exc!r}"
                checks += workloads.count_checks(cmd.out)
            if error is not None:
                self.failed += 1
                if not self._known_fault(cmd, code):
                    self.unexpected.append(f"{' '.join(cmd.argv)}: {error}")
        return elapsed, checks

    @staticmethod
    def _known_fault(cmd, code) -> bool:
        if cmd.known_fault is None or code is None:
            return False
        try:
            return cmd.known_fault(code, cmd.out)
        except OUTPUT_ERRORS:
            return False


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    problems = oracles.self_test()
    if problems:
        raise RuntimeError("oracle self-test failed: " + "; ".join(problems))
    layer_names = _per_layer_names() if trace else None
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        clock = time.perf_counter()
        wl = workloads.build(name, ROOT, work, seed)
        print(f"inputs built in {time.perf_counter() - clock:.2f} s")
        tracer = Tracer() if trace else None
        runner = Runner(wl, tracer)
        clock = time.perf_counter()
        runner.warm_up()
        print(f"warm-up in {time.perf_counter() - clock:.2f} s")

        untraced, traced, layer = [], [], []
        checks = 0
        # The setup samples are spread over the measuring window, so that a
        # slow stretch of a shared machine weighs on setup_s as on pass_s.
        setup = []
        setup_samples = 0 if trace else SETUP_SAMPLES if seconds > 0 else 1
        setup_spent = 0.0

        def sample_setup(share: float) -> None:
            """Take samples until their share matches the share of the window gone."""
            nonlocal setup_spent
            while len(setup) < min(setup_samples, 1 + int(setup_samples * share)):
                clock = time.perf_counter()
                setup.append(setup_sample(wl.inputs))
                setup_spent += time.perf_counter() - clock

        def between() -> None:
            gone = time.perf_counter() - start - setup_spent
            sample_setup(gone / seconds if seconds else 1.0)

        origin = time.perf_counter_ns()
        start = time.perf_counter()
        while True:
            tracing = trace and len(traced) < len(untraced)
            if tracing:
                first = len(tracer.spans)
                tracer.install()
                try:
                    t, checks = runner.run_pass(True)
                finally:
                    tracer.uninstall()
                traced.append(t)
                layer.append(tracer.metrics(first, len(tracer.spans)))
            else:
                t, checks = runner.run_pass(False, between)
                untraced.append(t)
            print(f"pass {len(untraced) + len(traced)} ({'traced' if tracing else 'untraced'}): "
                  f"{t:.3f} s, {checks} checks", flush=True)
            if time.perf_counter() - start - setup_spent >= seconds and (not trace or traced):
                break
        sample_setup(1.0)
        if not trace:
            print("setup samples: " + " ".join(f"{t:.3f}" for t in setup) + " s")

        clock = time.perf_counter()
        for extra in wl.extra_checks:
            reason = extra()
            if reason:
                runner.unexpected.append(reason)
        print(f"oracle checks in {time.perf_counter() - clock:.2f} s")
        for reason in runner.unexpected:
            print(f"UNEXPECTED: {reason}", file=sys.stderr)

        pass_s = statistics.median(untraced)
        if trace:
            path = WORK / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_jsonl(path, origin)
            print(f"spans written to {path.relative_to(ROOT)}")
            keys = set().union(*layer)
            values = {key: statistics.median(p.get(key, 0) for p in layer) for key in keys}
            values["trace.overhead_s"] = statistics.median(traced) - pass_s
            for key in NAMED:
                print(f"  {key:60s} {values.get(key, 0):.6g}")
            metrics = {n: {"value": values.get(n, 0), "unit": u} for n, u in layer_names}
        else:
            values = {
                "setup_s": statistics.median(setup),
                "pass_s": pass_s,
                "checks_per_s": checks / pass_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        return {"correct": not runner.unexpected, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Run each workload in its own process and print one table."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:60s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def run_reference(name: str) -> int:
    """Time one reference command once; not a workload, so no repeats."""
    import corrkit.cli

    WORK.mkdir(exist_ok=True)
    work = WORK / f"reference-{os.getpid()}"
    work.mkdir()
    try:
        argv = workloads.reference(name, work)
        out = work / "out.json"
        start = time.perf_counter()
        code = corrkit.cli.main(argv + ["--report", "machine", "--out", str(out)])
        seconds = time.perf_counter() - start
        status = json.loads(out.read_text(encoding="utf-8"))["status"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"reference": name, "command": argv[0], "seconds": seconds,
                      "exit": code, "status": status}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="dilation-m9, powers, shipped-sweep or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; whole passes run until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test the oracles, then one pass of every workload")
    parser.add_argument("--reference", default=None,
                        help="time one reference command once: ladder-m13, ladder-m16 or plane-l7")
    args = parser.parse_args(argv)

    if not (SRC / "corrkit" / "__init__.py").is_file():
        print(f"error: no corrkit sources under {SRC}", file=sys.stderr)
        return 2
    import corrkit

    if Path(corrkit.__file__).resolve().parent != SRC / "corrkit":
        print(f"error: imported corrkit from {corrkit.__file__}", file=sys.stderr)
        return 2
    if args.reference:
        if args.reference not in workloads.REFERENCES:
            print(f"error: unknown reference {args.reference!r}", file=sys.stderr)
            return 2
        return run_reference(args.reference)
    if args.smoke:
        return run_all(workloads.NAMES, args.seed, 0, args.trace)
    if args.workload == "all":
        return run_all(workloads.NAMES, args.seed, args.seconds, args.trace)
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
