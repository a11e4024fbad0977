"""Run the depth and size walls of ROADMAP.md, one fresh process per probe.

Usage, from the root of a source checkout:

    python3 tools/walls.py [--tree <tree>] <probe>...

Each probe builds its instance file in a temporary directory, in a process
of its own, and then runs one CLI command on it in another fresh process,
with one BLAS thread, importing ``corrkit`` from ``<tree>/src`` (default:
this checkout).  The probes run one at a time; for each, one line
``probe exit wall_s peak_rss_mib`` is printed: the command's exit code, the
wall time of ``corrkit.cli.main`` and the probe process's own ``ru_maxrss``.
The ladder instances come from this checkout's ``perfbench/workloads.ladder``
(``default_rng(1)``); ``bc16`` is ``B(C^16)``: C^16 over C with the inner map
of ``random_unitary(default_rng(16), 16)`` and xi = e_0; ``plane9`` and
``plane10`` are the product system of ``plane_correspondence()`` (C^2 over C)
at levels 9 and 10, with the units e1 and e2, through
``perfbench/workloads._powers_instance``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# probe -> (instance, command, levels)
PROBES = {
    "ladder6-verify-main-8": ("ladder6", "verify-main", 8),
    "ladder6-dilate-8": ("ladder6", "dilate", 8),
    "ladder6-verify-main-12": ("ladder6", "verify-main", 12),
    "ladder6-dilate-12": ("ladder6", "dilate", 12),
    "ladder7-verify-main-4": ("ladder7", "verify-main", 4),
    "bc16-verify-main": ("bc16", "verify-main", 4),
    "bc16-spatial": ("bc16", "spatial", 4),
    "plane9": ("plane9", "derive-ps", 9),
    "plane10": ("plane10", "derive-ps", 10),
}


def _import_corrkit(tree: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import corrkit

    if Path(corrkit.__file__).resolve().parent != (tree / "src" / "corrkit").resolve():
        raise SystemExit(f"imported corrkit from {corrkit.__file__}, not from {tree}")


def build(tree: Path, instance: str, path: Path) -> None:
    """Write the named instance to ``path``."""
    _import_corrkit(tree)
    import numpy as np

    if instance.startswith(("ladder", "plane")):
        import workloads
        from corrkit.gallery import plane_correspondence

        if instance.startswith("ladder"):
            workloads.ladder(path, [int(instance[6:])], np.random.default_rng(1))
        else:
            units = {"e1": np.array([1.0, 0.0]), "e2": np.array([0.0, 1.0])}
            workloads._powers_instance(path, plane_correspondence(), int(instance[5:]), units)
        return
    from corrkit.algebra import make_algebra
    from corrkit.endo import endomorphism_from_conjugation
    from corrkit.gallery import random_unitary, standard_module
    from corrkit.instance import Instance, RunConfig, emit_instance

    m = int(instance[2:])
    alg = make_algebra([1])
    eplus = standard_module(alg, [m])
    inst = Instance(alg, {"E": eplus}, config=RunConfig(levels=4))
    endo = endomorphism_from_conjugation(eplus, random_unitary(np.random.default_rng(m), m))
    inst.endomorphism = ("E", endo.matrix)
    inst.vectors["xi"] = ("E", np.eye(m)[0])
    path.write_text(emit_instance(inst) + "\n", encoding="utf-8")


def probe(tree: Path, name: str, path: Path) -> None:
    """Run the probe's command on ``path``; print its exit code, wall time and
    this process's peak RSS as JSON."""
    _import_corrkit(tree)
    import corrkit.cli

    _, command, levels = PROBES[name]
    argv = [command, str(path), "--levels", str(levels), "--report", "machine",
            "--out", str(path.with_suffix(".report.json"))]
    start = time.perf_counter()
    code = corrkit.cli.main(argv)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mib": rss}))


def _child(tree: Path, stage: str, path: Path, name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--tree", str(tree), "--stage", stage, "--path", str(path), name]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="root of a source checkout")
    parser.add_argument("probes", nargs="+", choices=list(PROBES), metavar="probe",
                        help=f"one of {', '.join(PROBES)}")
    parser.add_argument("--stage", choices=("build", "probe"), help=argparse.SUPPRESS)
    parser.add_argument("--path", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.stage == "build":
        build(tree, PROBES[args.probes[0]][0], args.path)
        return 0
    if args.stage == "probe":
        probe(tree, args.probes[0], args.path)
        return 0
    print("probe exit wall_s peak_rss_mib")
    failed = 0
    for name in args.probes:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{PROBES[name][0]}.json"
            done = _child(tree, "build", path, name)
            if done.returncode == 0:
                done = _child(tree, "probe", path, name)
        if done.returncode != 0:
            failed += 1
            print(f"{name} raised - -", flush=True)
            sys.stderr.write(done.stderr)
            continue
        out = json.loads(done.stdout.splitlines()[-1])
        print(f"{name} {out['exit']} {out['wall_s']:.2f} {out['peak_rss_mib']:.0f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
