"""Which verifiers no command reaches: an AST walk over ``src/corrkit`` from
the command handlers of ``cli``, following called names.

A function adds checks when it calls ``.add``, ``.add_flag``, ``check_map``
or ``cp_checks``.  The ones that no command reaches are library calls only;
the set is pinned, so a new unreachable verifier fails here, and wiring one
into a command (or deleting it) shrinks the set.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrkit"
ADDERS = {"add", "add_flag", "check_map", "cp_checks"}
LIBRARY_ONLY = {"power_coherence", "right_limit", "_stage_endomorphism_checks", "cp_of_unit"}


def _called(fn: ast.AST) -> set[str]:
    """The names ``fn`` calls, as ``f(...)`` or ``x.f(...)``, nested bodies included."""
    calls = (node.func for node in ast.walk(fn) if isinstance(node, ast.Call))
    return {getattr(f, "id", None) or getattr(f, "attr", None) for f in calls} - {None}


def unreached_verifiers(sources: dict[str, str]) -> set[str]:
    """Over the module sources ``{stem: text}``, the functions and methods that
    add checks and are not reached from ``cli``'s ``_cmd_*``, ``run`` and
    ``main``; functions are matched by name, so a name reached anywhere counts
    as reached everywhere."""
    defs: dict[str, list[ast.FunctionDef]] = {}
    roots = []
    for stem, text in sources.items():
        for node in ast.parse(text).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in (n for n in body if isinstance(n, ast.FunctionDef)):
                defs.setdefault(fn.name, []).append(fn)
                if stem == "cli" and (fn.name.startswith("_cmd_") or fn.name in ("run", "main")):
                    roots.append(fn.name)
    reached, todo = set(), roots
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for fn in defs[name] for n in _called(fn) if n in defs)
    return {name for name, fns in defs.items()
            if name not in reached and any(_called(fn) & ADDERS for fn in fns)}


def test_only_the_library_verifiers_are_unreached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreached_verifiers(sources) == LIBRARY_ONLY


def test_a_new_unreached_verifier_is_found():
    cli = "def main():\n    return _cmd_x()\n\ndef _cmd_x():\n    return checked(rep)\n"
    lib = ("def checked(rep):\n    rep.add('a', 0.0, 1.0)\n\n"
           "def orphan(rep):\n    check_map(rep)\n\n"
           "def quiet():\n    return orphan\n")
    assert unreached_verifiers({"cli": cli, "lib": lib}) == {"orphan"}
