"""Instance files: parsing, validation, canonical serialization, generation.

An instance is a single JSON document; complex scalars are ``[re, im]``
pairs, matrices are row-major lists of rows, and algebra elements are lists
of per-block matrices.  Unknown keys are rejected everywhere, every supplied
matrix must have operator norm at most 16 (so absolute tolerances are
meaningful), and every presentation is validated before any task runs.
Serialization is canonical: identical instances produce byte-identical
files, and generation is a pure function of the seed and profile.
"""
from __future__ import annotations

import cmath
import json
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


@dataclass
class RunConfig:
    levels: int = 4
    tol: float = 1e-9
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    report: str = "text"

    def __post_init__(self):
        if self.levels < 1:
            raise InstanceFormatError("config.levels must be at least 1")
        if not self.tol > 0:
            raise InstanceFormatError("config.tol must be positive")
        if self.budget < 1:
            raise InstanceFormatError("config.budget must be positive")
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

def _expect_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise InstanceFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise InstanceFormatError(f"{where}: missing keys {sorted(missing)}")


def _decode_scalar(value, where: str) -> complex:
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


def _read_pairs(value, ndim: int) -> np.ndarray | None:
    """``value`` as an ``ndim``-dimensional complex array in one conversion.

    Returns None unless ``value`` nests finite ``[re, im]`` pairs of numbers
    (no bools) into a rectangular array; the caller then decodes it element by
    element, which names the first bad element.  The entries are bitwise those
    of ``complex(re, im)``.
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


def _read_matrix(value, where: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A matrix of [re, im] pairs, with its shape checked but not its norm."""
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise InstanceFormatError(f"{where}: expected a list of rows")
    ncols = len(value[0])
    if any(len(r) != ncols for r in value):
        raise InstanceFormatError(f"{where}: ragged rows")
    out = _read_pairs(value, 2)
    if out is None:
        out = np.array([[_decode_scalar(x, where) for x in row] for row in value], dtype=complex)
    if shape is not None and out.shape != shape:
        raise InstanceFormatError(f"{where}: shape {out.shape}, expected {shape}")
    return out


def _decode_matrix(value, where: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    out = _read_matrix(value, where, shape)
    _check_norms(_operator_norms(out[None]), lambda _: where)
    return out


def _decode_vector(value, where: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where}: expected a list of [re, im] pairs")
    out = _read_pairs(value, 1)
    if out is None:
        out = np.array([_decode_scalar(x, where) for x in value], dtype=complex)
    if dim is not None and out.shape != (dim,):
        raise InstanceFormatError(f"{where}: length {out.shape[0]}, expected {dim}")
    _check_norms(_operator_norms(out.reshape(1, 1, -1)), lambda _: where)
    return out


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, one batched SVD."""
    if 0 in stack.shape[-2:]:
        return np.zeros(stack.shape[:-2])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _check_norms(norms: np.ndarray, where_of) -> None:
    """Reject the first matrix, in row-major order of ``norms``, whose operator
    norm exceeds the bound; ``where_of`` names it from its index."""
    bad = np.argwhere(norms > NORM_BOUND)
    if len(bad):
        index = tuple(int(k) for k in bad[0])
        raise InstanceFormatError(
            f"{where_of(*index)}: operator norm {norms[index]:.3f} exceeds the bound {NORM_BOUND}"
        )


def _read_element(value, alg: Algebra, where: str) -> list[np.ndarray]:
    """The block matrices of an algebra element, norms unchecked."""
    if not isinstance(value, list) or len(value) != len(alg.blocks):
        raise InstanceFormatError(
            f"{where}: algebra elements are lists of {len(alg.blocks)} block matrices"
        )
    return [
        _read_matrix(b, f"{where}[block {i}]", (n, n))
        for i, (b, n) in enumerate(zip(value, alg.blocks))
    ]


def _read_gram_blocks(gr: list, alg: Algebra, m: int) -> list[np.ndarray] | None:
    """Per algebra block, the (m, m, n, n) grid of Gram blocks, each in one
    conversion; None when any cell or entry is malformed."""
    if not all(isinstance(cell, list) and len(cell) == len(alg.blocks)
               for row in gr for cell in row):
        return None
    grids = []
    for b, n in enumerate(alg.blocks):
        grid = _read_pairs([[cell[b] for cell in row] for row in gr], 4)
        if grid is None or grid.shape != (m, m, n, n):
            return None
        grids.append(grid)
    return grids


def _read_actions(value, where: str, m: int) -> np.ndarray:
    """A stack of action matrices, with one batched norm check."""
    out = _read_pairs(value, 3)
    if out is None or out.shape != (len(value), m, m):
        out = np.stack([_read_matrix(mat, f"{where}[{c}]", (m, m))
                        for c, mat in enumerate(value)])
    _check_norms(_operator_norms(out), lambda c: f"{where}[{c}]")
    return out


def _decode_module(value, alg: Algebra, name: str, tol: float) -> ModulePresentation:
    where = f"modules.{name}"
    _expect_keys(
        value, {"dim", "right_action", "gram", "left_action"}, {"dim", "right_action", "gram"}, where
    )
    m = value["dim"]
    if not isinstance(m, int) or m < 1:
        raise InstanceFormatError(f"{where}.dim: expected a positive integer")
    ra = value["right_action"]
    if not isinstance(ra, list) or len(ra) != alg.dim:
        raise InstanceFormatError(f"{where}.right_action: expected {alg.dim} matrices")
    right = _read_actions(ra, f"{where}.right_action", m)
    gr = value["gram"]
    if not isinstance(gr, list) or len(gr) != m or any(len(row) != m for row in gr):
        raise InstanceFormatError(f"{where}.gram: expected an {m} x {m} grid of algebra elements")
    grids = _read_gram_blocks(gr, alg, m)
    if grids is None:
        cells = [[_read_element(gr[i][j], alg, f"{where}.gram[{i}][{j}]") for j in range(m)]
                 for i in range(m)]
        grids = [np.array([[cell[b] for cell in row] for row in cells])
                 for b in range(len(alg.blocks))]
    gram = np.zeros((m, m, alg.size, alg.size), dtype=complex)
    norms = np.empty((m, m, len(alg.blocks)))
    for b, (sl, blocks) in enumerate(zip(alg.block_slices, grids)):
        gram[:, :, sl, sl] = blocks
        norms[:, :, b] = _operator_norms(blocks)
    _check_norms(norms, lambda i, j, b: f"{where}.gram[{i}][{j}][block {b}]")
    if "left_action" in value:
        la = value["left_action"]
        if not isinstance(la, list) or len(la) != alg.dim:
            raise InstanceFormatError(f"{where}.left_action: expected {alg.dim} matrices")
        left = _read_actions(la, f"{where}.left_action", m)
        pres = Correspondence(alg, right, gram, left)
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
    ``levels`` entry also sets ``product_system.levels``."""
    _expect_keys(
        doc,
        {"algebra", "modules", "vectors", "endomorphism", "product_system", "config"},
        {"algebra", "modules"},
        "instance",
    )
    _expect_keys(doc["algebra"], {"blocks"}, {"blocks"}, "algebra")
    blocks = doc["algebra"]["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, int) for b in blocks):
        raise InstanceFormatError("algebra.blocks: expected a list of integers")
    try:
        alg = make_algebra(blocks)
    except Exception as exc:
        raise InstanceFormatError(f"algebra: {exc}") from exc

    cfg_doc = doc.get("config", {})
    _expect_keys(
        cfg_doc, {"levels", "tol", "budget", "seed", "report"}, set(), "config"
    )
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    config = RunConfig(**{**cfg_doc, **flags})

    modules = {}
    if not isinstance(doc["modules"], dict) or not doc["modules"]:
        raise InstanceFormatError("modules: expected a nonempty object")
    for name, value in doc["modules"].items():
        modules[name] = _decode_module(value, alg, name, config.tol)

    inst = Instance(alg, modules, config=config)

    for name, value in doc.get("vectors", {}).items():
        where = f"vectors.{name}"
        _expect_keys(value, {"module", "entries"}, {"module", "entries"}, where)
        mod = inst.module(value["module"])
        inst.vectors[name] = (
            value["module"],
            _decode_vector(value["entries"], where, mod.dim),
        )

    if "endomorphism" in doc:
        where = "endomorphism"
        _expect_keys(doc[where], {"on", "matrix", "basis"}, {"on", "matrix"}, where)
        if doc[where].get("basis") != OPERATOR_BASIS:
            raise InstanceFormatError(
                f"{where}.matrix is written in the retired operator basis; this version "
                f'reads only "basis": "{OPERATOR_BASIS}", the basis from the commutant expectation'
            )
        mod = inst.module(doc[where]["on"])
        matrix = _decode_matrix(doc[where]["matrix"], f"{where}.matrix")
        inst.endomorphism = (doc[where]["on"], matrix)
        inst.make_endo()  # shape check against the operator basis, kept for the commands

    if "product_system" in doc:
        where = "product_system"
        _expect_keys(
            doc[where], {"generator", "levels", "units"}, {"generator", "levels"}, where
        )
        gen = inst.correspondence(doc[where]["generator"], where)
        levels = doc[where]["levels"]
        if not isinstance(levels, int) or levels < 1:
            raise InstanceFormatError(f"{where}.levels: expected a positive integer")
        levels = flags.get("levels", levels)
        if config.budget < gen.dim:
            raise InstanceFormatError(
                f"{where}: budget {config.budget} below generator dimension {gen.dim}"
            )
        units = {}
        for uname, vec in doc[where].get("units", {}).items():
            units[uname] = _decode_vector(vec, f"{where}.units.{uname}", gen.dim)
        inst.product_system = {
            "generator": doc[where]["generator"],
            "levels": levels,
            "units": units,
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

