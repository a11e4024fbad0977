import json
from pathlib import Path

import numpy as np
import pytest

from corrkit import cli
from corrkit.dilation import DilationPipeline, weak_dilation_check
from corrkit.errors import InstanceFormatError
from corrkit.instance import (
    PROFILES,
    decode_instance,
    emit_instance,
    generate_instance,
    parse_instance,
)
from corrkit.hilbmod import adjointable_basis, validate_module

from conftest import TOL, max_deviation


def minimal_doc():
    return {
        "algebra": {"blocks": [1]},
        "modules": {
            "E": {
                "dim": 1,
                "right_action": [[[[1.0, 0.0]]]],
                "gram": [[[[[[1.0, 0.0]]]]]],
            }
        },
    }


def test_minimal_instance_parses(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(minimal_doc()))
    inst = parse_instance(str(path))
    assert set(inst.modules) == {"E"}
    assert inst.module("E").dim == 1
    assert inst.config.levels == 4


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"algebra": {"blocks": [1],}}')
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(str(path))
    assert "line" in str(err.value)


def test_unknown_keys_rejected():
    doc = minimal_doc()
    doc["extra"] = 1
    with pytest.raises(InstanceFormatError, match="unknown keys"):
        decode_instance(doc)
    doc = minimal_doc()
    doc["modules"]["E"]["mystery"] = 1
    with pytest.raises(InstanceFormatError, match="unknown keys"):
        decode_instance(doc)


def test_norm_bound_enforced():
    doc = minimal_doc()
    doc["modules"]["E"]["right_action"] = [[[[32.0, 0.0]]]]
    with pytest.raises(InstanceFormatError, match="operator norm"):
        decode_instance(doc)


def _module_doc():
    """A generated module over [1, 2] with a 6 x 6 grid of Gram elements."""
    doc = json.loads(emit_instance(generate_instance(3, "module")))
    assert doc["algebra"]["blocks"] == [1, 2] and doc["modules"]["E"]["dim"] == 6
    return doc


def test_norm_error_names_the_first_oversize_gram_block():
    doc = _module_doc()
    gram = doc["modules"]["E"]["gram"]
    gram[2][1][1][0][0] = [40.0, 0.0]
    gram[1][0][1][1][0] = [20.0, 0.0]
    with pytest.raises(InstanceFormatError) as err:
        decode_instance(doc)
    assert str(err.value).startswith("modules.E.gram[1][0][block 1]: operator norm 20.")
    gram[1][0][0][0][0] = [-30.0, 0.0]
    with pytest.raises(InstanceFormatError, match=r"^modules\.E\.gram\[1\]\[0\]\[block 0\]: operator norm 30\.000"):
        decode_instance(doc)


def test_norm_error_names_the_oversize_action():
    doc = _module_doc()
    doc["modules"]["E"]["right_action"][3][2][1] = [0.0, 17.0]
    with pytest.raises(InstanceFormatError, match=r"^modules\.E\.right_action\[3\]: operator norm"):
        decode_instance(doc)


def test_norms_checked_with_one_svd_per_stack(monkeypatch):
    doc = _module_doc()
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    decode_instance(doc)
    # the right-action stack, then the Gram grid once per algebra block
    assert calls == [(5, 6, 6), (6, 6, 1, 1), (6, 6, 2, 2)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_non_finite_scalars_rejected(value):
    doc = minimal_doc()
    doc["modules"]["E"]["right_action"] = [[[[1.0, value]]]]
    with pytest.raises(InstanceFormatError, match="finite"):
        decode_instance(doc)


def test_invalid_gram_named():
    doc = minimal_doc()
    doc["modules"]["E"]["gram"][0][0][0][0][0] = [-1.0, 0.0]
    with pytest.raises(InstanceFormatError, match="gram-positive"):
        decode_instance(doc)


def test_missing_left_action_errors_at_task():
    doc = minimal_doc()
    inst = decode_instance(doc)
    with pytest.raises(InstanceFormatError, match="tensor.*left_action"):
        inst.correspondence("E", "tensor")


def test_unresolved_references():
    inst = decode_instance(minimal_doc())
    with pytest.raises(InstanceFormatError, match="unresolved"):
        inst.module("missing")
    with pytest.raises(InstanceFormatError, match="unresolved"):
        inst.vector("missing")


def test_vector_dimension_checked():
    doc = minimal_doc()
    doc["vectors"] = {"v": {"module": "E", "entries": [[1.0, 0.0], [0.0, 0.0]]}}
    with pytest.raises(InstanceFormatError, match="length"):
        decode_instance(doc)


def test_endomorphism_shape_checked():
    doc = minimal_doc()
    doc["endomorphism"] = {"on": "E", "basis": "expectation",
                           "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [1.0, 0.0]]]}
    with pytest.raises(InstanceFormatError, match="has dimension"):
        decode_instance(doc)


def test_endomorphism_basis_built_once_per_tolerance(monkeypatch):
    import corrkit.instance as instance

    calls = []

    def counting(e, tol):
        calls.append(tol)
        return adjointable_basis(e, tol)

    monkeypatch.setattr(instance, "adjointable_basis", counting)
    text = emit_instance(generate_instance(0, "spatial-endomorphism"))
    inst = decode_instance(json.loads(text))
    assert calls == [TOL]  # the parse-time shape check
    eplus, endo = inst.make_endo()
    assert inst.make_endo()[1] is endo
    assert calls == [TOL]
    # an override reaches the parse-time basis; a None entry is no override
    again = decode_instance(json.loads(text), {"tol": 2 * TOL, "levels": None})
    assert again.config.tol == 2 * TOL and again.config.levels == inst.config.levels
    assert calls == [TOL, 2 * TOL]
    assert again.make_endo()[1] is not endo
    assert again.make_endo()[1] is again.make_endo()[1]
    assert calls == [TOL, 2 * TOL]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_instances_validate(profile, seed):
    inst = generate_instance(seed, profile)
    for mod in inst.modules.values():
        rep = validate_module(mod, inst.config.tol)
        assert rep.passed
        assert max_deviation(rep) <= TOL


@pytest.mark.parametrize("profile", PROFILES)
def test_generation_is_deterministic(profile):
    a = generate_instance(5, profile)
    b = generate_instance(5, profile)
    assert emit_instance(a) == emit_instance(b)


@pytest.mark.parametrize("profile", PROFILES)
def test_round_trip(profile, tmp_path):
    inst = generate_instance(2, profile)
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(inst))
    again = parse_instance(str(path))
    assert emit_instance(inst) == emit_instance(again)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weak_dilation_profile_passes_checker(seed):
    inst = generate_instance(seed, "weak-dilation")
    eplus, endo = inst.make_endo()
    _, vec = inst.vector("xi")
    wd = weak_dilation_check(DilationPipeline(eplus, endo, levels=3), vec)
    assert wd.ok


def test_unknown_profile():
    with pytest.raises(InstanceFormatError, match="profile"):
        generate_instance(0, "mystery")


# ---------------------------------------------------------------------------
# one conversion per array, with the entry-by-entry locator naming bad entries
# ---------------------------------------------------------------------------

def _corrupt_docs():
    """A correspondence over [1, 2] (3 x 3 actions, 3 x 3 Gram grid) and an
    endomorphism instance with a vector of length 5."""
    corr = json.loads(emit_instance(generate_instance(3, "correspondence")))
    dil = json.loads(emit_instance(generate_instance(3, "weak-dilation")))
    assert corr["algebra"]["blocks"] == [1, 2] and corr["modules"]["F"]["dim"] == 3
    assert len(dil["vectors"]["xi"]["entries"]) == 5
    return corr, dil


def _stack_targets(doc, key):
    """(row, column index, where) of the first, a middle and the last entry of
    an action stack."""
    stack = doc["modules"]["F"][key]
    d, m = len(stack), len(stack[0])
    return [(stack[c][i], j, f"modules.F.{key}[{c}]")
            for c, i, j in ((0, 0, 0), (d // 2, m // 2, m // 2), (d - 1, m - 1, m - 1))]


def _gram_targets(doc):
    """The same positions inside block 1 (2 x 2) of the Gram grid."""
    gram = doc["modules"]["F"]["gram"]
    m = len(gram)
    return [(gram[i][j][1][a], b, f"modules.F.gram[{i}][{j}][block 1]")
            for i, j, a, b in ((0, 0, 0, 0), (m // 2, m // 2, 1, 0), (m - 1, m - 1, 1, 1))]


BAD_ENTRIES = {
    "bool": ([True, 0.0], "complex entries are [re, im] pairs"),
    "non-pair": ([0.5, 0.0, 0.0], "complex entries are [re, im] pairs"),
    "nan": ([float("nan"), 0.0], "entries must be finite numbers"),
    "inf": ([0.0, -float("inf")], "entries must be finite numbers"),
    "huge-int": ([10**400, 0], "entries must be finite numbers"),
    "ragged": (None, "ragged rows"),
}


@pytest.mark.parametrize("kind,place", [
    (kind, place) for kind in BAD_ENTRIES
    for place in ("right_action", "left_action", "gram", "vector")
    if (kind, place) != ("ragged", "vector")  # a vector has no rows
])
@pytest.mark.parametrize("pos", range(3), ids=["first", "middle", "last"])
def test_bad_entry_named_as_by_the_element_decoder(kind, place, pos, monkeypatch):
    import corrkit.instance as instance

    bad, message = BAD_ENTRIES[kind]
    corr, dil = _corrupt_docs()
    if place == "vector":
        entries = dil["vectors"]["xi"]["entries"]
        doc, (row, j, where) = dil, (entries, (0, 2, len(entries) - 1)[pos], "vectors.xi")
    else:
        targets = _gram_targets(corr) if place == "gram" else _stack_targets(corr, place)
        doc, (row, j, where) = corr, targets[pos]
    if kind == "ragged":
        del row[j]
    else:
        row[j] = bad
    expected = f"{where}: {message}"
    with pytest.raises(InstanceFormatError) as err:
        decode_instance(doc)
    assert str(err.value) == expected
    # the same message with the one-step conversion switched off
    monkeypatch.setattr(instance, "_read_pairs", lambda value, ndim: None)
    with pytest.raises(InstanceFormatError) as err:
        decode_instance(doc)
    assert str(err.value) == expected


def test_one_step_decoding_matches_the_element_decoder(monkeypatch):
    """Bitwise the same arrays from the locator, and no entry-by-entry
    decoding of valid input."""
    import corrkit.instance as instance

    docs = list(_corrupt_docs()) + [json.loads(emit_instance(generate_instance(s, p)))
                                    for s in (0, 5) for p in PROFILES]
    docs[1]["vectors"]["xi"]["entries"][:2] = [[-0.0, 1], [3, -0.0]]  # signed zeros, ints

    def arrays(inst):
        out = []
        for mod in inst.modules.values():
            out += [mod.right_action, mod.gram] + ([mod.left_action] if mod.is_correspondence else [])
        out += [vec for _, vec in inst.vectors.values()]
        if inst.endomorphism:
            out.append(inst.endomorphism[1])
        return [(a.shape, a.tobytes()) for a in out]

    def refuse(value, shape, where_of):
        raise AssertionError(f"an array of shape {shape} decoded entry by entry")

    with monkeypatch.context() as patch:
        patch.setattr(instance, "_locate", refuse)
        fast = [arrays(decode_instance(doc)) for doc in docs]
    monkeypatch.setattr(instance, "_read_pairs", lambda value, ndim: None)
    slow = [arrays(decode_instance(doc)) for doc in docs]
    assert fast == slow
    xi = decode_instance(docs[1]).vectors["xi"][1]
    assert np.signbit([xi[0].real, xi[1].imag]).all() and xi[1].real == 3.0


# ---------------------------------------------------------------------------
# malformed documents exit 2, never with a traceback
# ---------------------------------------------------------------------------

SHIPPED = Path(__file__).resolve().parent.parent / "instances"


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _leaves(node, path=()):
    """(path, value) of every JSON leaf under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path, node
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _cli(argv, doc, tmp_path, capsys) -> tuple[int, str, str]:
    """``cli.main`` on ``doc`` written to a file: (exit code, stdout, stderr).
    An exception out of ``cli.main`` fails the calling test."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    return code, out, err


REPROS = {
    "levels-string": ("module-seed0", ("config", "levels"), "x", "config.levels"),
    "tol-null": ("module-seed0", ("config", "tol"), None, "config.tol"),
    "gram-row-scalar": ("module-seed0", ("modules", "E", "gram", 0), 1.5, "modules.E.gram"),
    "generator-list": ("correspondence-seed0", ("product_system", "generator"), [],
                       "product_system.generator"),
    "levels-float": ("module-seed0", ("config", "levels"), 2.5, "config.levels"),
    "blocks-bool": ("module-seed0", ("algebra", "blocks"), [True], "algebra.blocks[0]"),
    "seed-string": ("module-seed0", ("config", "seed"), "abc", "config.seed"),
    "tol-bool": ("module-seed0", ("config", "tol"), True, "config.tol"),
    "vectors-list": ("module-seed0", ("vectors",), [], "vectors"),
}


@pytest.mark.parametrize("case", REPROS)
def test_mistyped_field_exits_2_naming_it(case, tmp_path, capsys):
    name, path, value, field = REPROS[case]
    doc = json.loads((SHIPPED / f"{name}.json").read_text())
    _set(doc, path, value)
    with pytest.raises(InstanceFormatError) as err:
        decode_instance(doc)
    assert str(err.value).startswith(f"{field}: ")
    assert _cli(["validate"], doc, tmp_path, capsys)[::2] == (2, f"error: {err.value}\n")


def test_module_arrays_read_right_action_gram_left_action():
    """With every array of a correspondence bad, the error names the first in
    the order right action, Gram, left action."""
    fields = ("right_action", "gram", "left_action")
    for k, key in enumerate(fields):
        doc = json.loads((SHIPPED / "correspondence-seed0.json").read_text())
        for bad in fields[k:]:
            doc["modules"]["F"][bad] = "x"
        with pytest.raises(InstanceFormatError, match=rf"^modules\.F\.{key}: "):
            decode_instance(doc)


def test_negative_seed_is_recorded_but_not_generated(tmp_path, capsys):
    """A document's seed is only recorded in reports, so any integer is read;
    ``generate`` seeds numpy with it and refuses a negative one with exit 2."""
    doc = json.loads((SHIPPED / "module-seed0.json").read_text())
    doc["config"]["seed"] = -1
    assert decode_instance(doc).config.seed == -1
    assert _cli(["validate"], doc, tmp_path, capsys)[0] == 0
    assert cli.main(["generate", "--profile", "module", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed -1: expected an integer of at least 0\n"


REPLACEMENTS = ["x", True, None, [], {}, -1, 0, 1.5, [[1]], float("nan")]


def _must_reject(old, new) -> bool:
    """NaN, or a value of another JSON type than the leaf it replaces; an
    integer may stand for a float, and a bool is not a number."""
    return new != new or type(new) is not type(old) and not (type(old) is float and type(new) is int)


def test_mutated_shipped_documents_exit_2_or_decide(tmp_path, capsys):
    """A seeded mutation run: in every shipped instance, a draw of JSON leaves
    is replaced by each value of REPLACEMENTS.  ``validate`` gives exit 2 or a
    decided report and never raises, and a mistyped value always exits 2; a
    document that still validates also runs one pipeline command.  An integer
    in place of an integral float pair entry is the same document."""
    rng = np.random.default_rng(21)
    for path in sorted(SHIPPED.glob("*.json")):
        base = json.loads(path.read_text())
        leaves = list(_leaves(base))
        pipeline = (["verify-main", "--levels", "2"] if "endomorphism" in base
                    else ["derive-ps"] if "product_system" in base else None)
        for k in rng.choice(len(leaves), size=min(8, len(leaves)), replace=False):
            where, old = leaves[k]
            for new in REPLACEMENTS:
                doc = json.loads(json.dumps(base))
                _set(doc, where, new)
                code = _cli(["validate"], doc, tmp_path, capsys)[0]
                assert code in (0, 1, 2, 3), (path.name, where, new)
                if _must_reject(old, new):
                    assert code == 2, (path.name, where, new)
                if code in (0, 1) and pipeline:
                    assert _cli(pipeline, doc, tmp_path, capsys)[0] in (0, 1, 2, 3), (path.name, where, new)
        integral = [(where, old) for where, old in leaves if type(old) is float and old.is_integer()]
        expected = _cli(["validate"], base, tmp_path, capsys)
        for k in rng.choice(len(integral), size=min(3, len(integral)), replace=False):
            doc = json.loads(json.dumps(base))
            _set(doc, integral[k][0], int(integral[k][1]))
            assert _cli(["validate"], doc, tmp_path, capsys) == expected == (0, expected[1], "")
