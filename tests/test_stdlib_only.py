"""The runtime is standard-library only: every import in `src/srlnc` is
relative or names a standard-library module, and importing the CLI,
which every command's start-up waits for, loads no `dataclasses`.  No
module there uses `assert`, so its checks also run under `python -O`.
Every file the package writes goes through `cli._emit`, the one write
path, and every JSON layout comes from `cli.canonical_json`, the one
writer.  The trusted `Mat._of` is built only where the rows are known to
be reduced.  And the package exports only the names the README or the
release gates use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import srlnc
from helpers import README, readme_python_blocks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srlnc"
GATES = Path(__file__).resolve().parent / "test_acceptance.py"


# `dataclasses` and the modules it imports took about 9 ms of the 20 ms
# that `import srlnc.cli`, most of a command's start-up, took on a 2-vCPU
# x86_64 VM
START_UP_UNWANTED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_importing_the_cli_loads_no_dataclasses():
    # compared with the modules loaded before, which a site hook may grow
    probe = ("import sys; before = set(sys.modules); import srlnc.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    added = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "srlnc.cli" in added
    assert sorted(START_UP_UNWANTED.intersection(added)) == []


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_the_package_has_modules():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_are_relative_or_standard_library(path):
    outside = [name for name in _imported_modules(path)
               if not name.startswith(".")
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_statements(path):
    """Contracts must hold under `python -O`, which strips `assert`; they
    raise `ContractViolation` instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def _file_writes(source: str, allowed: str = ""):
    """Line numbers of calls that open or write a file outside the function
    named `allowed`: `os.open`, `write_text` / `write_bytes`, and `open`,
    `io.open` or `Path.open` with a mode that can write or one not spelled
    out."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name) else None
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") or (name == "open" and owner == "os"):
            lines.append(node.lineno)
        elif name == "open":
            # the mode follows the path, except on a Path's own `open`
            at = 1 if isinstance(func, ast.Name) or owner in ("io", "builtins") else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+"):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_files_are_written_only_by_emit(path):
    """Outputs share `_emit`'s in-place write, which skips the writeback
    that truncating on open forces on ext4."""
    allowed = "_emit" if path.name == "cli.py" else ""
    assert _file_writes(path.read_text(encoding="utf-8"), allowed) == []


@pytest.mark.parametrize("source, lines", [
    ('open(p, "w")', [1]), ('open(p, "ab")', [1]), ('open(p, mode="x")', [1]),
    ('open(p, "r+")', [1]), ('open(p, m)', [1]), ('os.open(p, os.O_RDONLY)', [1]),
    ('Path(p).write_text(t)', [1]), ('p.write_bytes(b)', [1]),
    ('open(p)', []), ('open(p, "rb")', []), ('open(p, mode="r", encoding="utf-8")', []),
    ('io.open(p, "w")', [1]), ('Path(p).open("a")', [1]), ('Path(p).open(mode="w")', [1]),
    ('Path(p).open()', []), ('io.open(p)', []),
    ('def _emit(t, out):\n    os.open(out, 0)\nopen(p, "w")', [3]),
])
def test_the_write_check_finds_writes(source, lines):
    assert _file_writes(source, "_emit") == lines


def _json_layout_calls(source: str):
    """Line numbers of `dump` / `dumps` calls, as `json.dumps(...)` or
    bare, that pass `indent=` or `sort_keys=`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
            and any(kw.arg in ("indent", "sort_keys") for kw in node.keywords)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_canonical_json_is_the_one_json_writer(path):
    """A second layout path would be a second format to keep byte-identical."""
    assert _json_layout_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, lines", [
    ("json.dumps(o, indent=2)", [1]), ("json.dump(o, fh, sort_keys=True)", [1]),
    ("dumps(o, indent=None)", [1]), ("json.dumps(o)", []), ("json.dumps(o, default=str)", []),
])
def test_the_json_writer_check_finds_layout_calls(source, lines):
    assert _json_layout_calls(source) == lines


def _trusted_mat_callers(source: str):
    """(line, innermost enclosing function or None) of each `._of(...)` call."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):        # outer functions first, so inner ones win
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return sorted((node.lineno, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "_of")


# the callers that may skip `Mat(...)`'s reduction; a new one is a deliberate edit here
TRUSTED_MAT_CALLERS = {"linalg.py": None, "blockcode.py": None, "cli.py": {"load_code"},
                       "multicast.py": {"build_multicast"}}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_trusted_mat_is_built_only_by_known_callers(path):
    allowed = TRUSTED_MAT_CALLERS.get(path.name, set())
    callers = _trusted_mat_callers(path.read_text(encoding="utf-8"))
    assert allowed is None or {fn for _, fn in callers} <= allowed, callers


def test_the_trusted_mat_check_finds_callers():
    source = ("def load_code():\n    Mat._of(f, r, 1)\n"
              "    def inner():\n        return Mat._of(f, r, 1)\n"
              "Mat._of(f, r, 1)\nMat(f, r)\n")
    assert _trusted_mat_callers(source) == [(2, "load_code"), (4, "inner"), (5, None)]


def _srlnc_imports(source: str):
    """The names `from srlnc import ...` statements in `source` import."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "srlnc"
            for alias in node.names]


def _unused_exports(exported, readme: str, gates: str):
    """Exported names the gates do not import and the README never names,
    except as a module's attribute (`srlnc.linalg.Subspace`)."""
    imported = set(_srlnc_imports(gates))
    return [name for name in exported if name not in imported
            and not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", readme)]


def _not_exported(sources, exported):
    return [name for source in sources for name in _srlnc_imports(source)
            if name not in exported]


def test_every_export_is_named_by_the_readme_or_imported_by_a_gate():
    readme = README.read_text(encoding="utf-8")
    gates = GATES.read_text(encoding="utf-8")
    assert _unused_exports(srlnc.__all__, readme, gates) == []


def test_the_readme_and_the_gates_import_only_exports():
    sources = [*readme_python_blocks(), GATES.read_text(encoding="utf-8")]
    assert all(_srlnc_imports(source) for source in sources)
    assert _not_exported(sources, srlnc.__all__) == []
    assert [name for name in srlnc.__all__ if not hasattr(srlnc, name)] == []


def test_the_export_checks_find_a_planted_name():
    readme = README.read_text(encoding="utf-8")
    gates = GATES.read_text(encoding="utf-8")
    planted = [*srlnc.__all__, "Subspace", "planted_name"]
    assert _unused_exports(planted, readme, gates) == ["Subspace", "planted_name"]
    assert _unused_exports(planted, readme, gates + "\nfrom srlnc import Subspace\n") == [
        "planted_name"]
    source = "from srlnc import Mat, Subspace\nfrom srlnc.linalg import invert\n"
    assert _not_exported([source], srlnc.__all__) == ["Subspace"]
