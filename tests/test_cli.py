import json
from pathlib import Path

import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.cli import (
    EXIT_DEGENERATE,
    EXIT_FAIL,
    EXIT_INVALID,
    EXIT_PASS,
    main,
    run,
)
from corrkit.gallery import (
    block_collapse_instance,
    conjugated,
    doubled_swap_correspondence,
    identity_mixed_instance,
    identity_scalar_instance,
    plane_correspondence,
    random_unitary,
)
from corrkit.hilbmod import Correspondence, algebra_correspondence
from corrkit.instance import Instance, emit_instance, generate_instance

from conftest import ladder_endomorphism

SHIPPED = Path(__file__).resolve().parent.parent / "instances"


def instance_from_endomorphism(inst_obj, include_vector=True) -> Instance:
    modules = {"E": inst_obj.eplus}
    inst = Instance(inst_obj.eplus.algebra, modules)
    inst.endomorphism = ("E", inst_obj.endo.matrix)
    if include_vector and inst_obj.unit_vectors:
        name, vec = next(iter(inst_obj.unit_vectors.items()))
        inst.vectors["xi"] = ("E", vec)
    return inst


def write(tmp_path, name, inst) -> str:
    path = tmp_path / name
    path.write_text(emit_instance(inst))
    return str(path)


@pytest.fixture(scope="module")
def spatial_file(tmp_path_factory):
    inst = instance_from_endomorphism(identity_mixed_instance())
    return write(tmp_path_factory.mktemp("cli"), "identity.json", inst)


@pytest.fixture(scope="module")
def collapse_file(tmp_path_factory):
    inst = instance_from_endomorphism(block_collapse_instance(), include_vector=False)
    return write(tmp_path_factory.mktemp("cli"), "collapse.json", inst)


def test_verify_main_passes(spatial_file, capsys):
    assert main(["verify-main", spatial_file]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "status: pass" in out


def test_verify_main_not_applicable(collapse_file, capsys):
    assert main(["verify-main", collapse_file]) == EXIT_DEGENERATE
    out = capsys.readouterr().out
    assert "not applicable (non-spatial)" in out


def test_corrupted_gram_exits_invalid(tmp_path, spatial_file):
    doc = json.loads(open(spatial_file).read())
    doc["modules"]["E"]["gram"][0][0][0][0][0][0] = -5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify-main", str(bad)]) == EXIT_INVALID


def test_verify_supplement_exit(spatial_file):
    assert main(["verify-supplement", spatial_file, "--vector", "xi"]) == EXIT_PASS


def test_dilate_exit(spatial_file):
    assert main(["dilate", spatial_file, "--vector", "xi"]) == EXIT_PASS


@pytest.mark.parametrize("command", ["verify-main", "spatial", "dilate", "verify-supplement"])
def test_endomorphism_with_a_zero_image_is_decided(command, tmp_path):
    """``theta(1) = 0`` over the scalars leaves ``E_1`` zero-dimensional; the
    map fails validation, and every endomorphism command fails with it before
    deciding anything else."""
    doc = json.loads((SHIPPED / "weak-dilation-seed0.json").read_text())
    assert doc["algebra"]["blocks"] == [1] and len(doc["endomorphism"]["matrix"]) == 1
    doc["endomorphism"]["matrix"][0][0] = [0.0, 0.0]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_FAIL
    assert main([command, str(path), "--levels", "2"]) == EXIT_FAIL


@pytest.mark.parametrize("build", [identity_mixed_instance, identity_scalar_instance])
def test_dilate_primary_flag_matches_primary_check(tmp_path, build):
    from corrkit.dilation import DilationPipeline, primary_span_ranks

    obj = build()
    path = write(tmp_path, "inst.json", instance_from_endomorphism(obj))
    report = machine_report(["dilate", path], tmp_path)
    flag = next(c for c in report["checks"] if c["name"] == "primary-dilation")
    xi = next(iter(obj.unit_vectors.values()))
    pipe = DilationPipeline(obj.eplus, obj.endo, levels=4)
    ranks = primary_span_ranks(pipe, xi)
    assert flag["passed"] == (ranks[-1] == pipe.eplus.dim)
    assert str(ranks) in report["detail"]


def test_spatial_exit(spatial_file, collapse_file):
    assert main(["spatial", spatial_file]) == EXIT_PASS
    # a certified negative is a decided verdict, not a degenerate one
    assert main(["spatial", collapse_file]) == EXIT_PASS


def test_basis_emits_operators(spatial_file, capsys):
    assert main(["basis", spatial_file, "--module", "E"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["module"] == "E"
    assert len(doc["operators"]) == 5


def test_basis_of_endomorphism_module_is_built_once(spatial_file, tmp_path, monkeypatch):
    import corrkit.cli as cli
    import corrkit.instance as instance
    from corrkit.hilbmod import adjointable_basis

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return adjointable_basis(*args, **kwargs)

    for mod in (cli, instance):
        monkeypatch.setattr(mod, "adjointable_basis", counted)
    out = tmp_path / "basis.json"
    assert main(["basis", spatial_file, "--module", "E", "--out", str(out)]) == EXIT_PASS
    assert len(calls) == 1  # the parse-time build of the endomorphism's basis
    ops = adjointable_basis(calls[0])
    pair = lambda m: [[[float(x.real), float(x.imag)] for x in row] for row in m]
    doc = {"module": "E", "operators": [
        {"matrix": pair(op.matrix), "adjoint": pair(op.adjoint)} for op in ops
    ]}
    assert out.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_parser_is_built_once_per_process(spatial_file, capsys):
    from corrkit.cli import _build_parser

    assert _build_parser() is _build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["basis", spatial_file])
        assert exc.value.code == 2
    errors = capsys.readouterr().err.split("usage: ")
    assert errors[1] == errors[2] and "--module" in errors[1]


def test_tensor_requires_correspondence(tmp_path):
    inst = generate_instance(0, "module")
    path = write(tmp_path, "mod.json", inst)
    assert main(["tensor", path, "--left", "E", "--right", "E"]) == EXIT_INVALID


def test_tensor_on_correspondence(tmp_path):
    inst = generate_instance(0, "correspondence")
    path = write(tmp_path, "corr.json", inst)
    assert main(["tensor", path, "--left", "F", "--right", "F"]) == EXIT_PASS


@pytest.mark.parametrize("side, eps", [
    ("left", 2e-10), ("left", 5e-10), ("gram", 2e-10), ("gram", 5e-10),
], ids=["2e-10", "5e-10", "gram-2e-10", "gram-5e-10"])
def test_tensor_keeps_the_trace_rank_of_a_nearly_idempotent_corner(tmp_path, capsys, side, eps):
    """Regression: a conjugated doubled swap with ``L(e^0_00)`` moved ``eps`` off
    idempotent along its least eigenvector, and ``L(e^1_00)`` the opposite way
    so that ``L(1) = I`` stays, passes ``validate`` at tol 1e-9.  Each corner
    keeps the rank ``tr L(e^b_00) = 2``, so ``F . F`` is realized with the
    unperturbed dimension 8 and passes; a singular-value cutoff relative to the
    top counted the ``eps`` direction, realized dimension 10 and failed.  The
    same holds with the Gram moved instead, block 0 by ``eps`` along the least
    eigenvector ``v`` of its block Gram and block 1 the opposite way: the Gram
    factor keeps ``P_b = tr R(e^b_00) = 2`` rows, where an eigenvalue cutoff
    relative to the top kept the ``eps`` one."""
    f = conjugated(doubled_swap_correspondence(), random_unitary(np.random.default_rng(3), 4))
    left, gram = f.left_action.copy(), f.gram.copy()
    if side == "left":
        least = np.linalg.eigh(left[0])[1][:, 0]
        left[:2] += eps * np.array([1.0, -1.0])[:, None, None] * np.outer(least, least.conj())
    else:
        least = np.linalg.eigh(gram[:, :, 0, 0])[1][:, 0]
        gram[:, :, 0, 0] += eps * np.outer(least.conj(), least)
        gram[:, :, 1, 1] -= eps * np.outer(least.conj(), least)
    path = write(tmp_path, "perturbed.json",
                 Instance(f.algebra, {"F": Correspondence(f.algebra, f.right_action, gram, left)}))
    assert main(["validate", path, "--tol", "1e-9"]) == EXIT_PASS
    assert main(["tensor", path, "--left", "F", "--right", "F"]) == EXIT_PASS
    assert "realized dimension 8 from 4 x 4" in capsys.readouterr().out


@pytest.mark.parametrize("eps", [2e-10, 4e-10])
def test_spatial_finds_the_unit_of_a_nearly_homomorphic_algebra(tmp_path, capsys, eps):
    """Regression: the algebra ``[1, 2]`` over itself with ``L(e^0_00)`` moved
    ``eps`` along its least eigenvector and ``L(e^1_00)`` the opposite way
    passes ``validate`` at tol 1e-9, and its unit ``1`` is central and unital.
    The central subspace keeps the dimension ``tr P = 2`` of the Haar average
    ``P``; a singular-value cutoff relative to the top dropped a direction of
    it and certified that no central unit exists."""
    e = algebra_correspondence(make_algebra([1, 2]))
    left = e.left_action.copy()
    least = np.linalg.eigh(left[0])[1][:, 0]
    left[:2] += eps * np.array([1.0, -1.0])[:, None, None] * np.outer(least, least.conj())
    inst = Instance(e.algebra, {"F": Correspondence(e.algebra, e.right_action, e.gram, left)})
    inst.product_system = {"generator": "F", "levels": 2, "units": {}}
    path = write(tmp_path, "perturbed.json", inst)
    assert main(["validate", path, "--tol", "1e-9"]) == EXIT_PASS
    assert main(["spatial", path]) == EXIT_PASS
    assert "central unit: found" in capsys.readouterr().out


def test_derive_ps(tmp_path):
    inst = generate_instance(1, "correspondence")
    path = write(tmp_path, "corr.json", inst)
    assert main(["derive-ps", path]) == EXIT_PASS


def test_compare_units_exits(tmp_path):
    corr = doubled_swap_correspondence()
    inst = Instance(corr.algebra, {"F": corr})
    inst.product_system = {
        "generator": "F",
        "levels": 3,
        "units": {
            "one": np.array([1.0, 1.0, 0.0, 0.0], dtype=complex),
            "two": np.array([0.0, 0.0, 1.0, 1.0], dtype=complex),
            "one-again": np.array([1.0, 1.0, 0.0, 0.0], dtype=complex),
        },
    }
    path = write(tmp_path, "units.json", inst)
    assert main(["compare-units", path, "--first", "one", "--second", "one-again"]) == EXIT_PASS
    assert main(["compare-units", path, "--first", "one", "--second", "two"]) == EXIT_FAIL


def plane_file(tmp_path, levels: int) -> str:
    """C^2 over C as a product-system generator, with two unital units; the
    run config keeps its default levels, which differ from ``levels``."""
    gen = plane_correspondence()
    inst = Instance(gen.algebra, {"F": gen})
    inst.product_system = {
        "generator": "F",
        "levels": levels,
        "units": {
            "e1": np.array([1.0, 0.0], dtype=complex),
            "e2": np.array([0.0, np.exp(0.3j)], dtype=complex),
        },
    }
    return write(tmp_path, f"plane-{levels}.json", inst)


def machine_report(argv, tmp_path) -> dict:
    out = tmp_path / "report.json"
    main(argv + ["--report", "machine", "--out", str(out)])
    return json.loads(out.read_text())


@pytest.mark.parametrize("command", ["derive-ps", "spatial"])
def test_product_system_reports_record_built_levels(tmp_path, command):
    files = [SHIPPED / f"{name}.json" for name in
             ("correspondence-seed0", "correspondence-seed1", "gallery-two-units")]
    files.append(Path(plane_file(tmp_path, 6)))
    for path in files:
        doc = json.loads(path.read_text())
        built = doc["product_system"]["levels"]
        assert built != doc["config"]["levels"]  # else the check shows nothing
        report = machine_report([command, str(path)], tmp_path)
        assert report["provenance"]["levels"] == built, path.name


@pytest.mark.parametrize("command", ["derive-ps", "spatial"])
def test_levels_flag_overrides_product_system_levels(tmp_path, command):
    path = str(SHIPPED / "correspondence-seed0.json")
    report = machine_report([command, path, "--levels", "3"], tmp_path)
    assert report["provenance"]["levels"] == 3
    if command == "derive-ps":
        dims = json.loads(report["detail"].removeprefix("stage dimensions "))
        assert len(dims) == 4


def test_coherence_sweep_runs_only_where_reported(tmp_path, spatial_file, monkeypatch):
    from corrkit.prodsys import ProductSystem

    sweep = ProductSystem.coherence_report
    calls = []

    def counted(self):
        calls.append(self.levels)
        return sweep(self)

    monkeypatch.setattr(ProductSystem, "coherence_report", counted)
    plane = plane_file(tmp_path, 4)
    corr = write(tmp_path, "corr.json", generate_instance(0, "correspondence"))
    expected = [
        (["derive-ps", plane], 1),
        (["verify-main", spatial_file], 1),
        (["verify-supplement", spatial_file], 1),
        (["compare-units", plane, "--first", "e1", "--second", "e2"], 0),
        (["spatial", plane], 0),
        (["spatial", spatial_file], 0),
        (["dilate", spatial_file], 0),
        (["validate", plane], 0),
        (["tensor", corr, "--left", "F", "--right", "F"], 0),
    ]
    for argv, count in expected:
        calls.clear()
        assert main(argv + ["--out", str(tmp_path / "out.txt")]) == EXIT_PASS, argv
        assert len(calls) == count, argv


@pytest.mark.parametrize("command", ["dilate", "verify-main", "verify-supplement", "spatial"])
def test_budget_flag_is_honoured_by_every_dilation_command(command, capsys):
    path = str(SHIPPED / "weak-dilation-seed1.json")
    assert main([command, path, "--budget", "3"]) == EXIT_INVALID
    assert "generator dimension 4 exceeds budget 3" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [3, 4])
def test_derive_ps_lists_every_coherence_check(tmp_path, levels):
    names = {c["name"] for c in machine_report(["derive-ps", plane_file(tmp_path, levels)], tmp_path)["checks"]}
    identifications = {
        f"identification[{s},{t}]-{kind}"
        for s in range(levels + 1) for t in range(levels + 1 - s)
        for kind in ("gram", "unitary", "bilinear")
    }
    triples = {
        f"coherence[{r},{s},{t}]"
        for r in range(1, levels + 1) for s in range(1, levels + 1) for t in range(2, levels + 1)
        if r + s + t <= levels
    }
    assert {n for n in names if n.startswith("identification[")} == identifications
    assert {n for n in names if n.startswith("coherence[")} == triples


def test_generate_and_validate_chain(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["generate", "--profile", "weak-dilation", "--seed", "7", "--out", str(out)]) == EXIT_PASS
    assert main(["validate", str(out)]) == EXIT_PASS
    assert main(["verify-supplement", str(out), "--vector", "xi"]) == EXIT_PASS


@pytest.mark.parametrize("profile", ["correspondence", "spatial-endomorphism", "weak-dilation"])
def test_generate_reproduces_the_shipped_file(tmp_path, profile):
    """``generate`` is byte-stable: seed 0 gives the shipped file, newline included."""
    out = tmp_path / "gen.json"
    assert main(["generate", "--profile", profile, "--seed", "0", "--out", str(out)]) == EXIT_PASS
    assert out.read_bytes() == (SHIPPED / f"{profile}-seed0.json").read_bytes()


def test_tol_flag_governs_parse_time_validation(tmp_path, capsys):
    """A Gram entry off by 1e-7 fails validation at the file's tolerance, 1e-9,
    and passes at ``--tol 1e-6``: the flag reaches the parse-time checks."""
    doc = json.loads((SHIPPED / "module-seed1.json").read_text())
    doc["modules"]["E"]["gram"][0][1][0][0][0][0] += 1e-7
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--tol", "1e-6"]) == EXIT_PASS
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "fails invariants: gram-hermitian" in capsys.readouterr().err


def ladder_file(tmp_path, blocks) -> str:
    """The benchmark's ladder instance (:func:`conftest.ladder_endomorphism`);
    xi is the identity."""
    from corrkit.gallery import unit_vector_of_identity

    eplus, endo = ladder_endomorphism(blocks)
    inst = Instance(eplus.algebra, {"E": eplus})
    inst.endomorphism = ("E", endo.matrix)
    inst.vectors["xi"] = ("E", unit_vector_of_identity(eplus.algebra, blocks))
    return write(tmp_path, f"ladder-{len(blocks)}.json", inst)


@pytest.mark.parametrize("blocks,levels", [([3], 8), ([2, 3], 6)])
def test_ladder_identities_hold_at_depth(tmp_path, blocks, levels):
    """Realized modules are whitened, so the Gram scale does not compound with
    depth: every identity of the deep ladders holds far inside its absolute
    tolerance (unwhitened, [3] at levels 8 failed 19 checks, the worst at 1.9e-7)."""
    out = tmp_path / "report.json"
    argv = ["verify-main", ladder_file(tmp_path, blocks), "--levels", str(levels)]
    assert main(argv + ["--report", "machine", "--out", str(out)]) == EXIT_PASS
    checks = json.loads(out.read_text())["checks"]
    assert f"restriction-identity[1,{levels - 1}]" in {c["name"] for c in checks}
    assert max(float(c["deviation"]) for c in checks) < 1e-12


def test_machine_reports_are_byte_identical(spatial_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-main", spatial_file, "--report", "machine", "--out", str(a)]) == EXIT_PASS
    assert main(["verify-main", spatial_file, "--report", "machine", "--out", str(b)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_run_dispatch_rejects_unknown_command(spatial_file):
    from corrkit.instance import parse_instance

    inst = parse_instance(spatial_file)
    with pytest.raises(Exception):
        run("mystery", inst)


def test_missing_file_is_invalid():
    assert main(["validate", "/nonexistent/path.json"]) == EXIT_INVALID


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_non_finite_entry_exits_invalid(tmp_path, capsys, value):
    doc = json.loads((SHIPPED / "module-seed1.json").read_text())
    doc["modules"]["E"]["right_action"][0][0][0][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
    assert main(["validate", str(bad)]) == EXIT_INVALID
    assert "finite" in capsys.readouterr().err


def test_linalg_failure_exits_invalid(spatial_file, monkeypatch, capsys):
    import corrkit.cli as cli

    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "run", diverge)
    assert main(["validate", spatial_file]) == EXIT_INVALID
    assert "SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("basis", [None, "kernel", ""])
def test_endomorphism_in_the_retired_basis_exits_invalid(tmp_path, capsys, basis):
    doc = json.loads((SHIPPED / "spatial-endomorphism-seed1.json").read_text())
    assert doc["endomorphism"]["basis"] == "expectation"
    if basis is None:
        del doc["endomorphism"]["basis"]
    else:
        doc["endomorphism"]["basis"] = basis
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    for command in ("validate", "verify-main"):
        assert main([command, str(old)]) == EXIT_INVALID
        assert "retired operator basis" in capsys.readouterr().err


def _zeroed(value):
    return [_zeroed(x) for x in value] if isinstance(value, list) else 0.0


@pytest.mark.parametrize("name,module,command", [
    ("module-seed0", "E", "validate"),
    ("correspondence-seed0", "F", "derive-ps"),
])
def test_zero_gram_exits_invalid(tmp_path, capsys, name, module, command):
    """An all-zero Gram is degenerate: parsing rejects it instead of passing
    it on to a verification that cannot realize it."""
    doc = json.loads((SHIPPED / f"{name}.json").read_text())
    doc["modules"][module]["gram"] = _zeroed(doc["modules"][module]["gram"])
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == EXIT_INVALID
    assert "fails invariants: scalar-gram-nondegenerate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the machine report against the indenting json encoder
# ---------------------------------------------------------------------------

def ref_machine(report) -> str:
    """The machine report as ``json.dumps`` writes the whole payload."""
    from corrkit.report import _stable

    payload = {
        "title": report.title,
        "status": report.status,
        "detail": report.detail,
        "provenance": {k: _stable(v) for k, v in report.provenance.items()},
        "checks": [
            {"name": c.name, "deviation": f"{c.deviation:.17e}",
             "tolerance": f"{c.tolerance:.17e}", "passed": c.passed}
            for c in sorted(report.checks, key=lambda c: c.name)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def shipped_commands(path: Path) -> list[list[str]]:
    """Every command that applies to a shipped file, by the sections it has."""
    doc = json.loads(path.read_text())
    f = str(path)
    argvs = [["validate", f]]
    if "endomorphism" in doc:
        argvs += [["verify-main", f], ["spatial", f]]
        if "xi" in doc.get("vectors", {}):
            argvs += [["dilate", f], ["verify-supplement", f]]
    ps = doc.get("product_system")
    if ps:
        argvs += [["derive-ps", f], ["spatial", f]]
        units = sorted(ps.get("units", {}))
        if len(units) >= 2:
            argvs.append(["compare-units", f, "--first", units[0], "--second", units[1]])
    for name, mod in sorted(doc["modules"].items()):
        if "left_action" in mod:
            argvs.append(["tensor", f, "--left", name, "--right", name])
    return argvs


def test_machine_report_bytes_are_the_json_encoders(tmp_path, monkeypatch):
    """Every machine report of every command on the shipped files is
    byte-identical to ``json.dumps(payload, sort_keys=True, indent=1)``."""
    from corrkit.report import VerificationReport

    emitted = VerificationReport.to_machine
    pairs = []

    def recorded(report):
        out = emitted(report)
        pairs.append((out, ref_machine(report)))
        return out

    monkeypatch.setattr(VerificationReport, "to_machine", recorded)
    argvs = [argv for path in sorted(SHIPPED.glob("*.json")) for argv in shipped_commands(path)]
    for argv in argvs:
        code = main(argv + ["--report", "machine", "--out", str(tmp_path / "out.json")])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_DEGENERATE), argv
        assert (tmp_path / "out.json").read_text() == pairs[-1][0] + "\n"
    assert len(pairs) == len(argvs) > 40
    assert all(out == ref for out, ref in pairs)


def test_machine_report_bytes_on_edge_values():
    """A NaN deviation, an empty check list, and names, titles and details
    with quotes, backslashes, newlines and non-ASCII characters."""
    from corrkit.report import VerificationReport

    empty = VerificationReport("empty")
    assert empty.to_machine() == ref_machine(empty) and '"checks": [],' in empty.to_machine()
    rep = VerificationReport('title "q" é\n', provenance={"levels": 3, "tol": 1e-9})
    rep.add('na"me\\ é ☃ [1,2]', float("nan"), 1e-9)
    rep.add("b", -0.0, 1e-9)
    rep.add("c", float("inf"), 0.0)
    rep.add_flag("a", False)
    rep.detail = "dü\ttab"
    assert rep.to_machine() == ref_machine(rep)
    assert json.loads(rep.to_machine())["checks"][-1]["deviation"] == "nan"


# ---------------------------------------------------------------------------
# the realized tensor's Gram has an independent check
# ---------------------------------------------------------------------------

def test_scaled_corner_gram_fails_the_inner_product_rule(tmp_path, monkeypatch):
    """Fault witness: one compressed Gram ``G~_b`` scaled by 1 + 1e-6 fails
    ``inner-product-rule``, which compares with the pre-Gram built from the
    factors, and ``tensor`` exits 1."""
    from corrkit.hilbmod import Correspondence, algebra_correspondence

    built = Correspondence.corner_frame.func

    def scaled(corr):
        frame = list(built(corr))
        corner, actions = frame[0]
        actions = actions.copy()
        actions[corr.algebra.dim:] *= 1 + 1e-6
        frame[0] = (corner, actions)
        return tuple(frame)

    argv = ["tensor", str(SHIPPED / "correspondence-seed0.json"), "--left", "F", "--right", "F"]
    assert main(argv) == EXIT_PASS
    monkeypatch.setattr(Correspondence, "corner_frame", property(scaled))
    out = tmp_path / "out.json"
    assert main(argv + ["--report", "machine", "--out", str(out)]) == EXIT_FAIL
    failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]]
    assert "inner-product-rule" in failed


def test_conjugated_left_blocks_fail_only_the_factor_map_check(tmp_path, monkeypatch):
    """Fault witness: the left action on the Gram factor rows, conjugated by
    the swap of the two rows, is still a unital *-representation commuting
    with the right action, so the realized tensor passes its own axioms; only
    ``factor-map-bilinear``, which compares it with ``L_E (x) I`` on the
    algebraic tensor, fails, and ``tensor`` exits 1."""
    from corrkit.hilbmod import Correspondence, algebra_correspondence

    built = Correspondence._left_blocks.func
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(Correspondence, "_left_blocks",
                        property(lambda corr: tuple(swap @ m @ swap for m in built(corr))))
    out = tmp_path / "out.json"
    argv = ["tensor", str(SHIPPED / "correspondence-seed1.json"), "--left", "F", "--right", "F"]
    assert main(argv + ["--report", "machine", "--out", str(out)]) == EXIT_FAIL
    failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]]
    assert failed == ["factor-map-bilinear"]
