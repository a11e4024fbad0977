"""Instance files: parsing, validation, canonical serialization, generation.

An instance is a single JSON document; complex scalars are ``[re, im]``
pairs, matrices are row-major lists of rows, and algebra elements are lists
of per-block matrices.  A document is decoded once, through one boundary
that raises ``InstanceFormatError`` (exit code 2) on any defect: every
section, key, name and integer field is type-checked before any array is
read (a bool is never a number, and nothing is coerced); every array is read
by :func:`_read_array`, in one conversion, and must be finite with operator
norm at most 16 (so absolute tolerances are meaningful); and every
presentation is validated before any task runs.
Serialization is canonical: identical instances produce byte-identical
files, and generation is a pure function of the seed and profile.
"""
from __future__ import annotations

import cmath
import functools
import json
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import NORM_BOUND, Algebra, make_algebra
from .endo import Endomorphism, endomorphism_from_conjugation
from .errors import InstanceFormatError
from .gallery import conjugated, random_unitary, row_operator, unit_vector_of_identity
from .hilbmod import (
    Correspondence, ModulePresentation, adjointable_basis, standard_module, validate_module,
)
from .prodsys import DEFAULT_BUDGET

PROFILES = ("module", "correspondence", "spatial-endomorphism", "weak-dilation")
_ALGEBRA_CYCLE = ([1], [2], [1, 1], [1, 2])
OPERATOR_BASIS = "expectation"  # the basis of adjointable_basis, named in every endomorphism


def _integer(value, where: str) -> int:
    """``value`` if it is an integer of at least 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InstanceFormatError(f"{where}: expected an integer of at least 1")
    return value


@dataclass
class RunConfig:
    levels: int = 4
    tol: float = 1e-9
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    report: str = "text"

    def __post_init__(self):
        _integer(self.levels, "config.levels")
        _integer(self.budget, "config.budget")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InstanceFormatError("config.seed: expected an integer")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise InstanceFormatError("config.tol: expected a positive finite number")
        if self.report not in ("text", "machine"):
            raise InstanceFormatError(f"config.report {self.report!r} not in text|machine")


@dataclass
class Instance:
    algebra: Algebra
    modules: dict[str, ModulePresentation]
    vectors: dict[str, tuple[str, np.ndarray]] = field(default_factory=dict)
    endomorphism: tuple[str, np.ndarray] | None = None
    product_system: dict | None = None
    config: RunConfig = field(default_factory=RunConfig)
    _endo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def module(self, name: str) -> ModulePresentation:
        if name not in self.modules:
            raise InstanceFormatError(f"unresolved module reference {name!r}")
        return self.modules[name]

    def correspondence(self, name: str, task: str) -> Correspondence:
        mod = self.module(name)
        if not mod.is_correspondence:
            raise InstanceFormatError(
                f"{task}: module {name!r} has no left_action but a correspondence is required"
            )
        return mod

    def vector(self, name: str) -> tuple[ModulePresentation, np.ndarray]:
        if name not in self.vectors:
            raise InstanceFormatError(f"unresolved vector reference {name!r}")
        mod_name, entries = self.vectors[name]
        return self.module(mod_name), entries

    def make_endo(self) -> tuple[ModulePresentation, Endomorphism]:
        """The endomorphism's module and map, built once, on the first call, with
        the operator basis at the config's tolerance."""
        if self._endo is None:
            if self.endomorphism is None:
                raise InstanceFormatError("instance has no endomorphism")
            name, matrix = self.endomorphism
            eplus = self.module(name)
            ops = adjointable_basis(eplus, self.config.tol)
            if matrix.shape != (len(ops), len(ops)):
                raise InstanceFormatError(
                    f"endomorphism matrix of shape {matrix.shape}; the operator basis "
                    f"of {name!r} has dimension {len(ops)}"
                )
            self._endo = (eplus, Endomorphism(eplus, ops, matrix))
        return self._endo


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _expect_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> dict:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise InstanceFormatError(f"{where}: missing keys {sorted(missing)}")
    return obj


def _objects(value, where: str, allowed: set[str], required: set[str]) -> dict:
    """A JSON object of named JSON objects, each with its keys checked."""
    if not isinstance(value, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    for name, entry in value.items():
        _expect_keys(entry, allowed, required, f"{where}.{name}")
    return value


def _name(value, where: str) -> str:
    if not isinstance(value, str):
        raise InstanceFormatError(f"{where}: expected a name")
    return value


def _read_pairs(value, ndim: int) -> np.ndarray | None:
    """``value`` as an ``ndim``-dimensional complex array in one conversion.

    Returns None unless ``value`` nests finite ``[re, im]`` pairs of numbers
    (no bools) into a rectangular array.  The entries are bitwise those of
    ``complex(re, im)``.
    """
    try:
        obj = np.array(value, dtype=object)
        if obj.ndim != ndim + 1 or obj.shape[-1] != 2:
            return None
        if not set(map(type, obj.flat)) <= {int, float}:  # a bool is an int to numpy
            return None
        pairs = obj.astype(float)
    except (ValueError, OverflowError):  # ragged nesting, an integer beyond the float range
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(complex)[..., 0]


def _entry(value, where: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise InstanceFormatError(f"{where}: complex entries are [re, im] pairs")
    try:
        z = complex(value[0], value[1])
        finite = cmath.isfinite(z)
    except OverflowError:  # an integer beyond the float range
        finite = False
    # json reads NaN and Infinity; no check can decide on them
    if not finite:
        raise InstanceFormatError(f"{where}: entries must be finite numbers")
    return z


def _fits(got: tuple, shape: tuple) -> bool:
    return len(got) == len(shape) and all(n in (None, k) for n, k in zip(shape, got))


def _locate(value, shape: tuple, where_of) -> np.ndarray:
    """Entry by entry, the array of :func:`_read_array` that one conversion
    could not read: raises at the first bad entry in row-major order, naming
    its vector or matrix by ``where_of(*outer index)``."""
    matrix = len(shape) > 1
    outer = shape[:-2] if matrix else ()
    units = []
    for index in np.ndindex(*outer):
        unit, where = functools.reduce(operator.getitem, index, value), where_of(*index)
        rows = unit if matrix else [unit]
        if not isinstance(unit, list) or matrix and not (unit and all(isinstance(r, list) for r in unit)):
            what = "a list of rows" if matrix else "a list of [re, im] pairs"
            raise InstanceFormatError(f"{where}: expected {what}")
        if any(len(r) != len(rows[0]) for r in rows):
            raise InstanceFormatError(f"{where}: ragged rows")
        out = np.array([[_entry(x, where) for x in r] for r in rows], dtype=complex)
        out = out if matrix else out[0]
        if not _fits(out.shape, shape[len(outer):]):
            raise InstanceFormatError(
                f"{where}: shape {out.shape}, expected {shape[len(outer):]}" if matrix
                else f"{where}: length {len(out)}, expected {shape[0]}"
            )
        units.append(out)
    return np.stack(units).reshape(outer + units[0].shape)


def _read_array(value, shape: tuple, where_of) -> np.ndarray:
    """The complex array of ``shape`` (``None`` a free length) that ``value``
    nests, with ``[re, im]`` pairs at the bottom and every matrix (a vector is
    a one-row matrix) within the operator-norm bound.

    Its trailing one axis (a vector) or two (matrices) form the units that
    ``where_of(*outer index)`` names in errors.  Valid input takes the one
    conversion of :func:`_read_pairs`; only when that fails does
    :func:`_locate` walk the entries to name the first bad one.
    """
    out = _read_pairs(value, len(shape))
    if out is None or not _fits(out.shape, shape):
        out = _locate(value, shape, where_of)
    stack = out if len(shape) > 1 else out[None]
    if 0 in stack.shape[-2:]:
        return out
    norms = np.linalg.svd(stack, compute_uv=False)[..., 0]  # one batched SVD
    bad = np.argwhere(norms > NORM_BOUND)
    if len(bad):
        index = tuple(int(k) for k in bad[0])
        raise InstanceFormatError(
            f"{where_of(*index)}: operator norm {norms[index]:.3f} exceeds the bound {NORM_BOUND}"
        )
    return out


def _decode_module(value: dict, alg: Algebra, where: str, tol: float) -> ModulePresentation:
    """A module whose keys and ``dim`` are checked, from its arrays."""
    m = value["dim"]

    def action(key: str) -> np.ndarray:
        if not isinstance(value[key], list) or len(value[key]) != alg.dim:
            raise InstanceFormatError(f"{where}.{key}: expected {alg.dim} matrices")
        return _read_array(value[key], (alg.dim, m, m), lambda c: f"{where}.{key}[{c}]")

    right = action("right_action")
    gr = value["gram"]
    if not (isinstance(gr, list) and len(gr) == m
            and all(isinstance(row, list) and len(row) == m for row in gr)):
        raise InstanceFormatError(f"{where}.gram: expected an {m} x {m} grid of algebra elements")
    for i, row in enumerate(gr):
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != len(alg.blocks):
                raise InstanceFormatError(
                    f"{where}.gram[{i}][{j}]: algebra elements are lists of "
                    f"{len(alg.blocks)} block matrices"
                )
    gram = np.zeros((m, m, alg.size, alg.size), dtype=complex)
    for b, (sl, n) in enumerate(zip(alg.block_slices, alg.blocks)):
        gram[:, :, sl, sl] = _read_array(
            [[cell[b] for cell in row] for row in gr], (m, m, n, n),
            lambda i, j: f"{where}.gram[{i}][{j}][block {b}]",
        )
    if "left_action" in value:
        pres = Correspondence(alg, right, gram, action("left_action"))
    else:
        pres = ModulePresentation(alg, right, gram)
    report = validate_module(pres, tol)
    if not report.passed:
        bad = ", ".join(c.name for c in report.failed_checks())
        raise InstanceFormatError(f"{where}: presentation fails invariants: {bad}")
    return pres


def decode_instance(doc: dict, overrides: dict | None = None) -> Instance:
    """Decode and fully validate an instance document.  The non-None entries
    of ``overrides`` (``RunConfig`` fields) replace the document's ``config``
    before any module is validated, any budget checked or any basis built; a
    ``levels`` entry also sets ``product_system.levels``.

    Every section, key, name and integer is checked before any array is read.
    """
    _expect_keys(
        doc,
        {"algebra", "modules", "vectors", "endomorphism", "product_system", "config"},
        {"algebra", "modules"},
        "instance",
    )
    blocks = _expect_keys(doc["algebra"], {"blocks"}, {"blocks"}, "algebra")["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise InstanceFormatError("algebra.blocks: expected a nonempty list of block sizes")
    alg = make_algebra([_integer(n, f"algebra.blocks[{k}]") for k, n in enumerate(blocks)])
    cfg_doc = _expect_keys(doc.get("config", {}), set(RunConfig.__dataclass_fields__), set(), "config")
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    config = RunConfig(**{**cfg_doc, **flags})

    modules = _objects(doc["modules"], "modules", {"dim", "right_action", "gram", "left_action"},
                       {"dim", "right_action", "gram"})
    if not modules:
        raise InstanceFormatError("modules: expected a nonempty object")
    for name, value in modules.items():
        _integer(value["dim"], f"modules.{name}.dim")
    vectors = _objects(doc.get("vectors", {}), "vectors", {"module", "entries"}, {"module", "entries"})
    for name, value in vectors.items():
        _name(value["module"], f"vectors.{name}.module")
    endo = doc.get("endomorphism")
    if "endomorphism" in doc:
        _expect_keys(endo, {"on", "matrix", "basis"}, {"on", "matrix"}, "endomorphism")
        _name(endo["on"], "endomorphism.on")
        if endo.get("basis") != OPERATOR_BASIS:
            raise InstanceFormatError(
                "endomorphism.matrix is written in the retired operator basis; this version "
                f'reads only "basis": "{OPERATOR_BASIS}", the basis from the commutant expectation'
            )
    ps = doc.get("product_system")
    if "product_system" in doc:
        _expect_keys(ps, {"generator", "levels", "units"}, {"generator", "levels"}, "product_system")
        _name(ps["generator"], "product_system.generator")
        _integer(ps["levels"], "product_system.levels")
        if not isinstance(ps.get("units", {}), dict):
            raise InstanceFormatError("product_system.units: expected an object")

    inst = Instance(alg, {name: _decode_module(value, alg, f"modules.{name}", config.tol)
                          for name, value in modules.items()}, config=config)
    for name, value in vectors.items():
        mod = inst.module(value["module"])
        inst.vectors[name] = (
            value["module"], _read_array(value["entries"], (mod.dim,), lambda: f"vectors.{name}"),
        )
    if endo is not None:
        inst.module(endo["on"])
        inst.endomorphism = (
            endo["on"], _read_array(endo["matrix"], (None, None), lambda: "endomorphism.matrix"),
        )
        inst.make_endo()  # shape check against the operator basis, kept for the commands
    if ps is not None:
        gen = inst.correspondence(ps["generator"], "product_system")
        if config.budget < gen.dim:
            raise InstanceFormatError(
                f"product_system: budget {config.budget} below generator dimension {gen.dim}"
            )
        inst.product_system = {
            "generator": ps["generator"],
            "levels": flags.get("levels", ps["levels"]),
            "units": {u: _read_array(vec, (gen.dim,), lambda: f"product_system.units.{u}")
                      for u, vec in ps.get("units", {}).items()},
        }
    return inst


def parse_instance(path: str, overrides: dict | None = None) -> Instance:
    """Load and fully validate an instance file, with the run-config
    ``overrides`` of :func:`decode_instance`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return decode_instance(doc, overrides)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _pairs(a: np.ndarray) -> list:
    """A complex array as nested lists with ``[re, im]`` pairs of floats at the bottom."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def encode_instance(inst: Instance) -> dict:
    alg = inst.algebra
    doc: dict = {"algebra": {"blocks": list(alg.blocks)}, "modules": {}}
    for name in sorted(inst.modules):
        mod = inst.modules[name]
        blocks = [_pairs(mod.gram[:, :, sl, sl]) for sl in alg.block_slices]
        entry = {
            "dim": mod.dim,
            "right_action": _pairs(mod.right_action),
            "gram": [[[grid[i][j] for grid in blocks] for j in range(mod.dim)]
                     for i in range(mod.dim)],
        }
        if mod.is_correspondence:
            entry["left_action"] = _pairs(mod.left_action)
        doc["modules"][name] = entry
    if inst.vectors:
        doc["vectors"] = {
            name: {"module": mod_name, "entries": _pairs(vec)}
            for name, (mod_name, vec) in sorted(inst.vectors.items())
        }
    if inst.endomorphism is not None:
        doc["endomorphism"] = {
            "on": inst.endomorphism[0],
            "matrix": _pairs(inst.endomorphism[1]),
            "basis": OPERATOR_BASIS,
        }
    if inst.product_system is not None:
        doc["product_system"] = {
            "generator": inst.product_system["generator"],
            "levels": inst.product_system["levels"],
            "units": {
                name: _pairs(vec) for name, vec in sorted(inst.product_system["units"].items())
            },
        }
    doc["config"] = asdict(inst.config)
    return doc


def emit_instance(inst: Instance) -> str:
    """Canonical byte-stable serialization."""
    return json.dumps(encode_instance(inst), sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

def _random_row_counts(alg: Algebra, rng: np.random.Generator) -> list[int]:
    return [int(rng.integers(1, 3)) * n for n in alg.blocks]


def _random_multiplicities(alg: Algebra, rng: np.random.Generator) -> tuple[list[int], list[list[int]]]:
    mult = []
    counts = []
    for _ in alg.blocks:
        row = [int(rng.integers(0, 2)) for _ in alg.blocks]
        if not any(row):
            row[int(rng.integers(0, len(alg.blocks)))] = 1
        mult.append(row)
        counts.append(sum(mu * n for mu, n in zip(row, alg.blocks)))
    return counts, mult


def generate_instance(seed: int, profile: str) -> Instance:
    """Deterministic instance from a fixed generator; same seed, same bytes.

    Profiles: plain ``module``, ``correspondence`` (multiplicity left action,
    unitary change of basis), ``spatial-endomorphism`` (conjugation by a
    seeded unitary, spatial by construction since inner maps admit a central
    unital unit), and ``weak-dilation`` (the algebra over itself with the
    identity as distinguished unit vector and an inner endomorphism, so the
    vector projection is increasing by construction).
    """
    if profile not in PROFILES:
        raise InstanceFormatError(f"unknown profile {profile!r}; choose from {PROFILES}")
    if seed < 0:
        raise InstanceFormatError(f"seed {seed}: expected an integer of at least 0")
    rng = np.random.default_rng(seed)
    alg = make_algebra(_ALGEBRA_CYCLE[seed % len(_ALGEBRA_CYCLE)])
    config = RunConfig(seed=seed)

    if profile == "module":
        pres = standard_module(alg, _random_row_counts(alg, rng))
        pres = conjugated(pres, random_unitary(rng, pres.dim))
        return Instance(alg, {"E": pres}, config=config)

    if profile == "correspondence":
        counts, mult = _random_multiplicities(alg, rng)
        pres = standard_module(alg, counts, multiplicities=mult)
        pres = conjugated(pres, random_unitary(rng, pres.dim))
        inst = Instance(alg, {"F": pres}, config=config)
        inst.product_system = {"generator": "F", "levels": 2, "units": {}}
        return inst

    if profile == "spatial-endomorphism":
        counts = [n for n in alg.blocks]
        eplus = standard_module(alg, counts)
        carrier = random_unitary(rng, eplus.dim)
        eplus = conjugated(eplus, carrier)
        # a unitary in the commutant: conjugate a blockwise unitary on the
        # row coordinates into the new basis
        v_std = row_operator(alg, [random_unitary(rng, k) for k in counts])
        v = carrier.conj().T @ v_std @ carrier
        endo = endomorphism_from_conjugation(eplus, v)
        inst = Instance(alg, {"E": eplus}, config=config)
        inst.endomorphism = ("E", endo.matrix)
        return inst

    # weak-dilation: the algebra over itself, identity unit vector, inner map
    counts = [n for n in alg.blocks]
    eplus = standard_module(alg, counts)
    # left multiplication by g*, for a blockwise unitary g
    v = row_operator(alg, [random_unitary(rng, n).conj().T for n in alg.blocks])
    endo = endomorphism_from_conjugation(eplus, v)
    inst = Instance(alg, {"E": eplus}, config=config)
    inst.endomorphism = ("E", endo.matrix)
    inst.vectors["xi"] = ("E", unit_vector_of_identity(alg, counts))
    return inst

