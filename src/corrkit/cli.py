"""Command-line interface: instance ingestion, dispatch, report emission.

Exit codes: 0 all checks pass, 1 a check failed, 2 invalid input,
3 degenerate verdict (not applicable or unknown).  Reports are emitted as
human-readable text or as a byte-stable machine format.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .dilation import (
    DilationPipeline,
    compare_unit_limits,
    primary_span_ranks,
    spatiality_report,
    verify_main,
    verify_supplement,
    weak_dilation_check,
)
from .endo import validate_endomorphism
from .errors import (
    ConstructionError,
    CorrkitError,
    InstanceFormatError,
    PreconditionError,
)
from .hilbmod import (
    Correspondence,
    ModulePresentation,
    _dev,
    adjointable_basis,
    check_map,
    internal_tensor,
    pull_gram,
    tensor_pre_gram,
    validate_module,
)
from .instance import (
    PROFILES, Instance, RunConfig, _pairs, emit_instance, generate_instance, parse_instance,
)
from .prodsys import ProductSystem, check_unit, find_central_unital_unit
from .report import NOT_APPLICABLE, PASS, UNKNOWN, VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3


def _exit_code(report: VerificationReport) -> int:
    if report.status in (NOT_APPLICABLE, UNKNOWN):
        return EXIT_DEGENERATE
    return EXIT_PASS if report.status == PASS else EXIT_FAIL


def run(command: str, inst: Instance, **kwargs) -> tuple[int, VerificationReport]:
    """Dispatch one verification command under ``inst.config``, the config the
    instance was parsed and validated with; returns (exit code, report)."""
    config = inst.config
    handlers = {
        "validate": _cmd_validate,
        "tensor": _cmd_tensor,
        "derive-ps": _cmd_derive_ps,
        "spatial": _cmd_spatial,
        "dilate": _cmd_dilate,
        "verify-main": _cmd_verify_main,
        "verify-supplement": _cmd_verify_supplement,
        "compare-units": _cmd_compare_units,
    }
    if command not in handlers:
        raise InstanceFormatError(f"unknown command {command!r}")
    report = handlers[command](inst, config, **kwargs)
    report.provenance.setdefault("seed", config.seed)
    report.provenance.setdefault("levels", config.levels)
    report.provenance.setdefault("budget", config.budget)
    return _exit_code(report), report


def _cmd_validate(inst: Instance, config: RunConfig) -> VerificationReport:
    rep = VerificationReport("instance validation")
    for name in sorted(inst.modules):
        rep.extend(validate_module(inst.modules[name], config.tol), prefix=f"{name}.")
    if inst.endomorphism is not None:
        rep.extend(validate_endomorphism(inst.make_endo()[1], config.tol))
    return rep


def _cmd_tensor(inst: Instance, config: RunConfig, left: str = "", right: str = "") -> VerificationReport:
    if not left or not right:
        raise InstanceFormatError("tensor: --left and --right module names are required")
    e = inst.module(left)
    f = inst.correspondence(right, "tensor")
    tensor, fm = internal_tensor(e, f)
    rep = VerificationReport(f"internal tensor {left} . {right}")
    pre = tensor_pre_gram(e, f)
    rep.add("inner-product-rule", _dev(pull_gram(fm.matrix, tensor.gram), pre), config.tol)
    # the factor map against the algebraic tensor's actions I (x) R_F and L_E (x) I
    right_action = np.kron(np.eye(e.dim)[None], f.right_action)
    if e.is_correspondence:
        algebraic = Correspondence(e.algebra, right_action, pre, np.kron(e.left_action, np.eye(f.dim)[None]))
    else:
        algebraic = ModulePresentation(e.algebra, right_action, pre)
    prop = "bilinear" if e.is_correspondence else "right-linear"
    check_map(rep, fm.matrix, algebraic, tensor, config.tol, {prop: f"factor-map-{prop}"})
    rep.extend(validate_module(tensor, config.tol), prefix="tensor-")
    rep.detail = f"realized dimension {tensor.dim} from {e.dim} x {f.dim}"
    return rep


def _require_ps(inst: Instance, config: RunConfig):
    if inst.product_system is None:
        raise InstanceFormatError("this command needs a product_system section")
    gen = inst.correspondence(inst.product_system["generator"], "product_system")
    return ProductSystem(gen, inst.product_system["levels"], config.tol, config.budget)


def _cmd_derive_ps(inst: Instance, config: RunConfig) -> VerificationReport:
    ps = _require_ps(inst, config)
    rep = VerificationReport("product system derivation", provenance={"levels": ps.levels})
    rep.extend(ps.coherence_report())
    for name, vec in sorted(inst.product_system["units"].items()):
        rep.extend(check_unit(ps, vec), prefix=f"{name}.")
    rep.detail = f"stage dimensions {[ps.power(n).dim for n in range(ps.levels + 1)]}"
    return rep


def _on_pipeline(body):
    """A dilation command, ``body(inst, pipe, **kwargs)`` on the one pipeline
    built from the run config, behind one gate: an endomorphism that fails
    validation makes that report the command's, before any spatiality decision."""
    def command(inst: Instance, config: RunConfig, **kwargs) -> VerificationReport:
        pipe = DilationPipeline(*inst.make_endo(), config.levels, config.tol, config.budget)
        checked = pipe.endomorphism_report()
        return body(inst, pipe, **kwargs) if checked.passed else checked
    return command


def _cmd_spatial(inst: Instance, config: RunConfig) -> VerificationReport:
    if inst.endomorphism is not None:
        return _on_pipeline(lambda _, pipe: spatiality_report(pipe)[1])(inst, config)
    ps = _require_ps(inst, config)
    search = find_central_unital_unit(ps.generator, config.tol)
    rep = VerificationReport("spatiality", provenance={"levels": ps.levels})
    rep.add_flag("central-unit-search-decided", search.status in ("found", "none-exists"))
    if search.status == "found":
        rep.extend(check_unit(ps, search.vector))
    rep.detail = f"central unit: {search.status} ({search.certificate})"
    return rep


def _endo_vector(inst: Instance, pipe: DilationPipeline, command: str, vector: str) -> np.ndarray:
    mod, vec = inst.vector(vector)
    if mod is not pipe.eplus:
        raise InstanceFormatError(
            f"{command}: vector {vector!r} does not live on the endomorphism module"
        )
    return vec


@_on_pipeline
def _cmd_dilate(inst: Instance, pipe: DilationPipeline, vector: str = "xi") -> VerificationReport:
    vec = _endo_vector(inst, pipe, "dilate", vector)
    rep = weak_dilation_check(pipe, vec).report
    ranks = primary_span_ranks(pipe, vec)
    rep.add_flag("primary-dilation", ranks[-1] == pipe.eplus.dim)
    rep.detail = f"moved-projection span ranks {ranks} on a module of dimension {pipe.eplus.dim}"
    return rep


_cmd_verify_main = _on_pipeline(lambda _, pipe: verify_main(pipe))


@_on_pipeline
def _cmd_verify_supplement(inst: Instance, pipe: DilationPipeline, vector: str = "xi") -> VerificationReport:
    return verify_supplement(pipe, _endo_vector(inst, pipe, "verify-supplement", vector))


def _cmd_compare_units(
    inst: Instance, config: RunConfig, first: str = "", second: str = ""
) -> VerificationReport:
    ps = _require_ps(inst, config)
    units = inst.product_system["units"]
    for name in (first, second):
        if name not in units:
            raise InstanceFormatError(
                f"compare-units: unit {name!r} not found in product_system.units"
            )
    result = compare_unit_limits(ps, units[first], units[second])
    rep = result.report
    rep.provenance["verdict"] = result.verdict
    if result.verdict == "unknown":
        rep.set_status(UNKNOWN, rep.detail or "no automorphism found; verdict open")
    rep.detail = f"verdict: {result.verdict}" + (f"; {rep.detail}" if rep.detail else "")
    return rep


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="corrkit",
        description="verify Hilbert-module dilation identities on desk-scale instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_instance=True):
        if with_instance:
            p.add_argument("instance", help="path to an instance file")
        p.add_argument("--levels", type=int, default=None, help="truncation level")
        p.add_argument("--tol", type=float, default=None, help="absolute tolerance")
        p.add_argument("--budget", type=int, default=None, help="carrier dimension budget")
        p.add_argument("--seed", type=int, default=None, help="seed recorded in reports")
        p.add_argument("--report", choices=("text", "machine"), default=None)
        p.add_argument("--out", default=None, help="write the report to this path")

    for name in ("validate", "derive-ps", "spatial", "verify-main"):
        common(sub.add_parser(name))
    p = sub.add_parser("tensor")
    common(p)
    p.add_argument("--left", required=True, help="left factor module name")
    p.add_argument("--right", required=True, help="right factor correspondence name")
    p = sub.add_parser("dilate")
    common(p)
    p.add_argument("--vector", default="xi", help="name of the distinguished unit vector")
    p = sub.add_parser("verify-supplement")
    common(p)
    p.add_argument("--vector", default="xi", help="name of the distinguished unit vector")
    p = sub.add_parser("compare-units")
    common(p)
    p.add_argument("--first", required=True, help="first unit name")
    p.add_argument("--second", required=True, help="second unit name")
    p = sub.add_parser("basis", help="emit the canonical operator basis of a module")
    common(p)
    p.add_argument("--module", required=True, help="module name")
    p = sub.add_parser("generate", help="emit a deterministic seeded instance")
    common(p, with_instance=False)
    p.add_argument("--profile", required=True, choices=PROFILES)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the flags given override the instance's config section
    flags = {k: v for k in ("levels", "tol", "budget", "seed", "report")
             if (v := getattr(args, k)) is not None}
    try:
        if args.command == "generate":
            inst = generate_instance(RunConfig(**flags).seed, args.profile)
            _emit(emit_instance(inst), args.out)
            return EXIT_PASS

        inst = parse_instance(args.instance, flags)
        config = inst.config
        if args.command == "basis":
            # the endomorphism's module already has its basis from parsing
            if inst.endomorphism is not None and inst.endomorphism[0] == args.module:
                ops = inst.make_endo()[1].ops
            else:
                ops = adjointable_basis(inst.module(args.module), config.tol)
            doc = {
                "module": args.module,
                "operators": [{"matrix": _pairs(op.matrix), "adjoint": _pairs(op.adjoint)}
                              for op in ops],
            }
            _emit(json.dumps(doc, sort_keys=True, indent=1), args.out)
            return EXIT_PASS

        extra = {}
        for key in ("left", "right", "vector", "first", "second"):
            if hasattr(args, key):
                extra[key] = getattr(args, key)
        code, report = run(args.command, inst, **extra)
        _emit(report.to_machine() if config.report == "machine" else report.to_text(), args.out)
        return code
    except (InstanceFormatError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure on this input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConstructionError as exc:
        print(f"construction failed: {exc} (residual {exc.residual:.3e})", file=sys.stderr)
        return EXIT_FAIL
    except CorrkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
