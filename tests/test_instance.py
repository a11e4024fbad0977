import dataclasses
import json

import pytest

from corrkit.dilation import DilationPipeline, weak_dilation_check
from corrkit.errors import InstanceFormatError
from corrkit.instance import (
    PROFILES,
    decode_instance,
    emit_instance,
    generate_instance,
    instances_equal,
    parse_instance,
)
from corrkit.hilbmod import adjointable_basis, validate_module

from conftest import TOL


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
    import numpy as np

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
    doc["endomorphism"] = {"on": "E", "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.0], [1.0, 0.0]]]}
    with pytest.raises(InstanceFormatError, match="operator basis"):
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
    inst.config = dataclasses.replace(inst.config, tol=2 * TOL)
    assert inst.make_endo()[1] is not endo
    assert calls == [TOL, 2 * TOL]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_instances_validate(profile, seed):
    inst = generate_instance(seed, profile)
    for mod in inst.modules.values():
        rep = validate_module(mod, inst.config.tol)
        assert rep.passed
        assert rep.max_deviation <= TOL


@pytest.mark.parametrize("profile", PROFILES)
def test_generation_is_deterministic(profile):
    a = generate_instance(5, profile)
    b = generate_instance(5, profile)
    assert instances_equal(a, b)
    assert emit_instance(a) == emit_instance(b)


@pytest.mark.parametrize("profile", PROFILES)
def test_round_trip(profile, tmp_path):
    inst = generate_instance(2, profile)
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(inst))
    again = parse_instance(str(path))
    assert instances_equal(inst, again)


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
