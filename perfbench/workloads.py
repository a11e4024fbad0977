"""The three workloads: seeded inputs, CLI commands and expected outcomes.

Every expected outcome comes from how an input was built or from the
oracles, never from a recorded run of the package.  A command is one
operation; ``Command.check`` returns ``None`` when the command's exit code,
verdict and checked outputs agree with the expectation, or the reason why
not.  Deviation digits are never compared: they depend on the BLAS thread
count.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

EXIT_PASS, EXIT_FAIL, EXIT_DEGENERATE = 0, 1, 3

SHIPPED = (
    "correspondence-seed0", "correspondence-seed1", "gallery-block-collapse",
    "gallery-identity", "gallery-inner-rotation", "gallery-two-units",
    "module-seed0", "module-seed1", "spatial-endomorphism-seed0",
    "spatial-endomorphism-seed1", "weak-dilation-seed0", "weak-dilation-seed1",
)
# How each shipped endomorphism was built: inner maps are spatial by
# construction; the block collapse is not injective, hence not spatial.
INNER = {"gallery-identity", "gallery-inner-rotation", "spatial-endomorphism-seed0",
         "spatial-endomorphism-seed1", "weak-dilation-seed0", "weak-dilation-seed1"}
NON_SPATIAL = {"gallery-block-collapse"}
# The one module whose ``basis`` output is known to be short (see
# ``incomplete_operator_basis``); a short basis anywhere else is unexpected.
SHORT_BASIS = ("module-seed0", "E")
PROFILES = ("module", "correspondence", "spatial-endomorphism", "weak-dilation")


@dataclass
class Command:
    """One CLI invocation and the check of its output."""

    argv: list[str]
    out: Path
    check: Callable[[int, Path], str | None]
    known_fault: Callable[[int, Path], bool] | None = None


@dataclass
class Workload:
    inputs: list[Path]                       # instance files parsed by setup_s
    commands: list[Command]
    warmup: list[tuple[list[str], Path]]     # (argv, output) run once, untimed
    extra_checks: list[Callable[[], str | None]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# reading reports
# ---------------------------------------------------------------------------

def _report(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def count_checks(path: Path) -> int:
    """Named checks decided by one command (0 for non-report outputs)."""
    try:
        doc = _report(path)
    except (OSError, ValueError):
        return 0
    return len(doc.get("checks", [])) if isinstance(doc, dict) else 0


def _bracketed(text: str, prefix: str) -> list[int]:
    m = re.search(re.escape(prefix) + r" (\[[0-9, ]*\])", text)
    if not m:
        raise ValueError(f"no {prefix!r} list in {text!r}")
    return json.loads(m.group(1))


def expect_report(status: str, code: int, *more: Callable[[dict], str | None]):
    """Check exit code and verdict, then each further predicate."""

    def check(exit_code: int, out: Path) -> str | None:
        if exit_code != code:
            return f"exit code {exit_code}, expected {code}"
        doc = _report(out)
        if doc["status"] != status:
            failed = [c["name"] for c in doc["checks"] if not c["passed"]]
            return f"status {doc['status']}, expected {status} (failed: {failed[:5]})"
        for pred in more:
            reason = pred(doc)
            if reason:
                return reason
        return None

    return check


def restriction_names(levels: int):
    """Every restriction identity ``[t, m]`` with 1 <= t, t + m <= levels."""

    def pred(doc):
        names = {c["name"] for c in doc["checks"]}
        missing = [f"restriction-identity[{t},{m}]" for t in range(1, levels + 1)
                   for m in range(levels + 1 - t)
                   if f"restriction-identity[{t},{m}]" not in names]
        return f"missing {missing[:3]}" if missing else None

    return pred


def detail_startswith(prefix: str):
    return lambda doc: None if doc["detail"].startswith(prefix) else f"detail {doc['detail']!r}"


def detail_contains(text: str):
    return lambda doc: None if text in doc["detail"] else f"detail {doc['detail']!r}"


def stage_dims(expected: list[int]):
    def pred(doc):
        got = _bracketed(doc["detail"], "stage dimensions")
        return None if got == expected else f"stage dimensions {got}, oracle {expected}"

    return pred


def verdict(expected: str):
    def pred(doc):
        got = doc["provenance"].get("verdict")
        return None if got == expected else f"verdict {got}, expected {expected}"

    return pred


def span_ranks_reach(dim: int):
    def pred(doc):
        ranks = _bracketed(doc["detail"], "moved-projection span ranks")
        ok = ranks == sorted(ranks) and ranks[-1] <= dim and f"dimension {dim}" in doc["detail"]
        return None if ok else f"span ranks {ranks} on dimension {dim}"

    return pred


def tensor_dim(expected: int, factor_dim: int):
    def pred(doc):
        want = f"realized dimension {expected} from {factor_dim} x {factor_dim}"
        return None if doc["detail"] == want else f"detail {doc['detail']!r}, oracle {want!r}"

    return pred


def expect_basis(mod: oracles.Module):
    """Operator count from the oracle; every operator is right-linear."""

    def check(exit_code: int, out: Path) -> str | None:
        if exit_code != EXIT_PASS:
            return f"exit code {exit_code}"
        ops = _report(out)["operators"]
        want = oracles.operator_basis_dimension(mod)
        if len(ops) != want:
            return f"{len(ops)} operators, oracle {want}"
        for op in ops:
            if not oracles.commutes_with_right_action(mod, oracles.decode_matrix(op["matrix"])):
                return "an operator does not commute with the right action"
        return None

    return check


def incomplete_operator_basis(mod: oracles.Module):
    """The failure of the purely relative rank cutoff in ``null_space``: when
    the commutant system is zero up to rounding, noise counts as rank and
    ``basis`` emits fewer operators than the oracle, each still right-linear."""

    def known(exit_code: int, out: Path) -> bool:
        if exit_code != EXIT_PASS:
            return False
        ops = [oracles.decode_matrix(op["matrix"]) for op in _report(out)["operators"]]
        return 0 < len(ops) < oracles.operator_basis_dimension(mod) and all(
            oracles.commutes_with_right_action(mod, op) for op in ops)

    return known


def expect_same_bytes(first: Path):
    def check(exit_code: int, out: Path) -> str | None:
        if exit_code != EXIT_PASS:
            return f"exit code {exit_code}"
        return None if first.read_bytes() == out.read_bytes() else "generate is not byte-stable"

    return check


def expect_exit(code: int):
    return lambda exit_code, out: None if exit_code == code else f"exit code {exit_code}"


def scale_growth_fault(levels: int):
    """The failure the unwhitened quotient causes: verify-main fails only on
    checks whose deviation is still tiny relative to the Gram scale of the
    deepest stage (largest Gram entry 3^(2L-1) on the m=9 ladder)."""
    bound = 1e-12 * 3.0 ** (2 * levels - 1)

    def known(exit_code: int, out: Path) -> bool:
        if exit_code != EXIT_FAIL:
            return False
        doc = _report(out)
        failed = [float(c["deviation"]) for c in doc["checks"] if not c["passed"]]
        return doc["status"] == "fail" and bool(failed) and max(failed) <= bound \
            and restriction_names(levels)(doc) is None

    return known


# ---------------------------------------------------------------------------
# building inputs with the package's own constructors
# ---------------------------------------------------------------------------

def _write(path: Path, inst) -> Path:
    from corrkit.instance import emit_instance

    path.write_text(emit_instance(inst) + "\n", encoding="utf-8")
    return path


def ladder(path: Path, blocks: list[int], rng: np.random.Generator) -> tuple[Path, np.ndarray]:
    """A ladder instance: the algebra over itself with the inner map
    ``a -> v a v*``, where ``v`` has blocks ``kron(U_n, I_n)`` (acting on the
    row index, so it commutes with the right action); xi is the identity."""
    from corrkit.algebra import make_algebra
    from corrkit.endo import endomorphism_from_conjugation
    from corrkit.gallery import random_unitary, standard_module, unit_vector_of_identity
    from corrkit.instance import Instance, RunConfig

    alg = make_algebra(blocks)
    eplus = standard_module(alg, blocks)
    parts = [np.kron(random_unitary(rng, n), np.eye(n)) for n in blocks]
    v = np.zeros((eplus.dim, eplus.dim), dtype=complex)
    at = 0
    for part in parts:
        v[at:at + part.shape[0], at:at + part.shape[0]] = part
        at += part.shape[0]
    inst = Instance(alg, {"E": eplus}, config=RunConfig(levels=4))
    inst.endomorphism = ("E", endomorphism_from_conjugation(eplus, v).matrix)
    inst.vectors["xi"] = ("E", unit_vector_of_identity(alg, blocks))
    return _write(path, inst), v


def _powers_instance(path: Path, gen, levels: int, units: dict) -> Path:
    from corrkit.instance import Instance, RunConfig

    inst = Instance(gen.algebra, {"F": gen}, config=RunConfig(levels=4))
    inst.product_system = {"generator": "F", "levels": levels, "units": units}
    return _write(path, inst)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def dilation_m9(work: Path, seed: int) -> Workload:
    """The m=9 ladder instance: three commands at levels 4 on a seeded
    unitary, and verify-main at levels 7 on the fixed ladder unitary
    (``default_rng(1)``), which fails through the unwhitened quotient."""
    seeded, v_seeded = ladder(work / "m9-seeded.json", [3], np.random.default_rng(seed))
    fixed, v_fixed = ladder(work / "m9-ladder.json", [3], np.random.default_rng(1))
    dim = 9
    inner_spatial = (detail_startswith("central unit: found"), detail_contains("isometry: found"))
    plan = [
        (["verify-main", str(seeded), "--levels", "4"],
         expect_report("pass", EXIT_PASS, restriction_names(4)), None),
        (["dilate", str(seeded), "--levels", "4"],
         expect_report("pass", EXIT_PASS, span_ranks_reach(dim)), None),
        (["spatial", str(seeded), "--levels", "4"],
         expect_report("pass", EXIT_PASS, *inner_spatial), None),
        (["verify-main", str(fixed), "--levels", "7"],
         expect_report("pass", EXIT_PASS, restriction_names(7)), scale_growth_fault(7)),
    ]
    commands = [Command(argv, work / f"out-{i}.json", check, known)
                for i, (argv, check, known) in enumerate(plan)]
    warmup = [(argv[:-1] + ["1"], work / "warmup.json") for argv, _, _ in plan]

    def theta_oracle(path: Path, v: np.ndarray, levels: int):
        def check() -> str | None:
            from corrkit.instance import parse_instance

            _, endo = parse_instance(str(path)).make_endo()
            worst = max(
                float(np.abs(endo.apply(op.matrix, t) - oracles.inner_power(v, op.matrix, t)).max())
                for op in endo.ops for t in range(1, levels + 1)
            )
            return None if worst <= oracles.TOL else f"Endomorphism.apply off v^t a v^-t by {worst:.2e}"

        return check

    return Workload([seeded, fixed], commands, warmup,
                    [theta_oracle(seeded, v_seeded, 4), theta_oracle(fixed, v_fixed, 7)])


def powers(work: Path, seed: int) -> Workload:
    """C^2 over C at levels 6 with two phase-rotated coordinate units, and
    the doubled swap over C+C at levels 4 in a seeded carrier basis."""
    from corrkit.gallery import (conjugated, doubled_swap_correspondence,
                                 plane_correspondence, random_unitary)

    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(2))
    plane_units = {"e1": np.array([phases[0], 0]), "e2": np.array([0, phases[1]])}
    basis = random_unitary(rng, 4)
    swap_units = {"plain": basis.conj().T @ np.array([1, 1, 0, 0]),
                  "swapped": basis.conj().T @ np.array([0, 0, 1, 1])}
    swap = conjugated(doubled_swap_correspondence(), basis)
    files = {}
    for tag, plane_levels, swap_levels in (("", 6, 4), ("-warmup", 3, 2)):
        files["plane" + tag] = _powers_instance(
            work / f"plane{tag}.json", plane_correspondence(), plane_levels, plane_units)
        files["swap" + tag] = _powers_instance(
            work / f"doubled-swap{tag}.json", swap, swap_levels, swap_units)

    plane_doc = oracles.load_instance(files["plane"])
    swap_doc = oracles.load_instance(files["swap"])
    plane_mod, swap_mod = plane_doc["decoded"]["F"], swap_doc["decoded"]["F"]
    plane_dims = oracles.stage_dimensions([1], oracles.multiplicity_matrix(plane_mod), 6)
    swap_dims = oracles.stage_dimensions([1, 1], oracles.multiplicity_matrix(swap_mod), 4)
    units = {k: oracles.decode_vector(v) for k, v in plane_doc["product_system"]["units"].items()}
    same = oracles.compressions_agree(plane_mod, units["e1"], units["e2"])
    compare = (expect_report("pass", EXIT_PASS, verdict("automorphism-found")) if same
               else expect_report("fail", EXIT_FAIL, verdict("necessary-condition-fails")))

    def plan(tag):
        return [
            (["derive-ps", str(files["plane" + tag])],
             expect_report("pass", EXIT_PASS, stage_dims(plane_dims))),
            (["compare-units", str(files["plane" + tag]), "--first", "e1", "--second", "e2"],
             compare),
            (["derive-ps", str(files["swap" + tag])],
             expect_report("pass", EXIT_PASS, stage_dims(swap_dims))),
        ]

    commands = [Command(argv, work / f"out-{i}.json", check)
                for i, (argv, check) in enumerate(plan(""))]
    return Workload([files["plane"], files["swap"]], commands,
                    [(argv, work / "warmup.json") for argv, _ in plan("-warmup")])


def shipped_sweep(root: Path, work: Path, seed: int) -> Workload:
    """Every applicable command on each shipped instance at its own config,
    plus ``generate`` twice per profile (seeded) and ``validate`` on it."""
    plan = []
    inputs = []
    for stem in SHIPPED:
        path = root / "instances" / f"{stem}.json"
        inputs.append(path)
        doc = oracles.load_instance(path)
        f = str(path)
        plan.append((["validate", f], expect_report("pass", EXIT_PASS)))
        if "endomorphism" in doc:
            if stem in INNER:
                plan.append((["verify-main", f],
                             expect_report("pass", EXIT_PASS, restriction_names(doc["config"]["levels"]))))
                plan.append((["spatial", f], expect_report(
                    "pass", EXIT_PASS, detail_startswith("central unit: found"),
                    detail_contains("isometry: found"))))
            elif stem in NON_SPATIAL:
                plan.append((["verify-main", f], expect_report("not-applicable", EXIT_DEGENERATE)))
                plan.append((["spatial", f], expect_report(
                    "pass", EXIT_PASS, detail_startswith("central unit: none-exists"))))
            else:
                raise ValueError(f"{stem}: no construction-derived expectation")
            if "xi" in doc.get("vectors", {}):
                dim = doc["decoded"][doc["endomorphism"]["on"]].dim
                plan.append((["dilate", f], expect_report("pass", EXIT_PASS, span_ranks_reach(dim))))
                plan.append((["verify-supplement", f], expect_report("pass", EXIT_PASS)))
        ps = doc.get("product_system")
        if ps:
            gen = doc["decoded"][ps["generator"]]
            lam = oracles.multiplicity_matrix(gen)
            dims = oracles.stage_dimensions(gen.blocks, lam, ps["levels"])
            plan.append((["derive-ps", f], expect_report("pass", EXIT_PASS, stage_dims(dims))))
            found = oracles.has_central_unital_unit(lam)
            plan.append((["spatial", f], expect_report(
                "pass", EXIT_PASS,
                detail_startswith("central unit: " + ("found" if found else "none-exists")))))
            names = sorted(ps.get("units", {}))
            if len(names) >= 2:
                u1, u2 = (oracles.decode_vector(ps["units"][n]) for n in names[:2])
                if oracles.compressions_agree(gen, u1, u2):
                    check = expect_report("pass", EXIT_PASS, verdict("automorphism-found"))
                else:
                    check = expect_report("fail", EXIT_FAIL, verdict("necessary-condition-fails"))
                plan.append((["compare-units", f, "--first", names[0], "--second", names[1]], check))
        for name, mod in sorted(doc["decoded"].items()):
            if mod.left is not None:
                lam = oracles.multiplicity_matrix(mod)
                want = oracles.stage_dimensions(mod.blocks, lam, 2)[2]
                plan.append((["tensor", f, "--left", name, "--right", name],
                             expect_report("pass", EXIT_PASS, tensor_dim(want, mod.dim))))
            known = incomplete_operator_basis(mod) if (stem, name) == SHORT_BASIS else None
            plan.append((["basis", f, "--module", name], expect_basis(mod), known))

    commands = [Command(p[0], work / f"out-{i}.json", *p[1:]) for i, p in enumerate(plan)]
    for k, profile in enumerate(PROFILES):
        first, second = work / f"gen-{profile}-a.json", work / f"gen-{profile}-b.json"
        gen = ["generate", "--profile", profile, "--seed", str(4 * seed + k)]
        commands.append(Command(gen, first, expect_exit(EXIT_PASS)))
        commands.append(Command(gen, second, expect_same_bytes(first)))
        out = work / f"out-validate-{profile}.json"
        commands.append(Command(["validate", str(first)], out, expect_report("pass", EXIT_PASS)))
    warmup = [(c.argv, c.out) for c in commands]
    return Workload(inputs, commands, warmup)


def reference(name: str, work: Path) -> list[str]:
    """Command line of a reference figure: measured once, not a workload."""
    from corrkit.gallery import plane_correspondence

    if name in ("ladder-m13", "ladder-m16"):
        blocks = [2, 3] if name == "ladder-m13" else [4]
        path, _ = ladder(work / f"{name}.json", blocks, np.random.default_rng(1))
        return ["verify-main", str(path), "--levels", "4"]
    if name == "plane-l7":
        units = {"e1": np.array([1, 0]), "e2": np.array([0, 1])}
        path = _powers_instance(work / "plane-l7.json", plane_correspondence(), 7, units)
        return ["derive-ps", str(path)]
    raise ValueError(f"unknown reference {name!r}")


REFERENCES = ("ladder-m13", "ladder-m16", "plane-l7")


def build(name: str, root: Path, work: Path, seed: int) -> Workload:
    if name == "dilation-m9":
        return dilation_m9(work, seed)
    if name == "powers":
        return powers(work, seed)
    if name == "shipped-sweep":
        return shipped_sweep(root, work, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("dilation-m9", "powers", "shipped-sweep")
