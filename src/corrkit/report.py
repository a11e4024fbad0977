"""Verification reports: named checks, deviations, tolerances, verdicts.

A report collects checks of the form "this identity holds up to this
deviation".  The overall verdict is the conjunction of the per-check
verdicts, unless a degenerate status (``not-applicable`` or ``unknown``)
has been set explicitly; degenerate verdicts are first-class outcomes,
not failures.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
UNKNOWN = "unknown"


def _worst(devs) -> float:
    """Largest of the deviations, NaN when any of them is NaN.

    Python's ``max`` keeps its running value when compared against a NaN,
    so a NaN deviation that is not first would pass unnoticed.
    """
    out = 0.0
    for dev in devs:
        dev = float(dev)
        if math.isnan(dev):
            return dev
        out = max(out, dev)
    return out


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    tolerance: float
    passed: bool


class VerificationReport:
    """Ordered collection of named checks plus provenance metadata."""

    def __init__(self, title: str, provenance: dict | None = None):
        self.title = title
        self.provenance = dict(provenance or {})
        self.checks: list[Check] = []
        self._status: str | None = None
        self.detail = ""

    def add(self, name: str, deviation: float, tolerance: float) -> bool:
        """Record a deviation-based check; returns whether it passed."""
        deviation = float(deviation)
        ok = deviation <= tolerance
        self.checks.append(Check(name, deviation, float(tolerance), ok))
        return ok

    def add_flag(self, name: str, ok: bool) -> bool:
        """Record a yes/no check (rank equality, certificate, ...)."""
        self.checks.append(Check(name, 0.0 if ok else 1.0, 0.0, bool(ok)))
        return ok

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(Check(name, c.deviation, c.tolerance, c.passed))

    def set_status(self, status: str, detail: str = "") -> None:
        self._status = status
        if detail:
            self.detail = detail

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        if self._status is not None:
            return self._status
        return PASS if self.passed else FAIL

    def failed_checks(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        if self.provenance:
            prov = ", ".join(f"{k}={self.provenance[k]}" for k in sorted(self.provenance))
            lines.append(f"   ({prov})")
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f" [{mark}] {c.name}: deviation {c.deviation:.3e} (tol {c.tolerance:.3e})")
        lines.append(f"status: {self.status}" + (f" -- {self.detail}" if self.detail else ""))
        return "\n".join(lines)

    def to_machine(self) -> str:
        """Stable machine format: sorted keys, decimal-string deviations.

        The bytes are those of ``json.dumps(payload, sort_keys=True, indent=1)``
        with the checks sorted by name.  The indenting encoder is pure Python,
        so the check list, the bulk of a report, is written with one
        ``%``-format per check, and ``json`` writes the names and the head.
        """
        head = json.dumps({
            "title": self.title,
            "status": self.status,
            "detail": self.detail,
            "provenance": {k: _stable(v) for k, v in self.provenance.items()},
        }, sort_keys=True, indent=1)
        checks = [
            _MACHINE_CHECK % (c.deviation, json.dumps(c.name), "true" if c.passed else "false",
                              c.tolerance)
            for c in sorted(self.checks, key=lambda c: c.name)
        ]
        listed = "[\n" + ",\n".join(checks) + "\n ]" if checks else "[]"
        # "checks" sorts before every key of the head, which opens with "{\n"
        return '{\n "checks": ' + listed + ",\n" + head[2:]


_MACHINE_CHECK = (
    '  {\n   "deviation": "%.17e",\n   "name": %s,\n   "passed": %s,\n'
    '   "tolerance": "%.17e"\n  }'
)


def _stable(value):
    if isinstance(value, float):
        return f"{value:.17e}"
    return value
