"""The docs are checked against the code, not kept in step by hand.

* ``docs/ARCHITECTURE.md``'s layer table is generated from the code: one
  row per ``src/repro/<layer>/`` with its ``.py`` line count, the first
  line of its ``__init__`` docstring, the ``repro.api`` names whose home
  module lives in it, and its entry points (``[project.scripts]`` in
  ``pyproject.toml`` plus ``python -m`` for a ``__main__.py``).  A row
  that disagrees fails, naming it.  Rewrite the table with::

      PYTHONPATH=src python tests/test_docs.py

* Every fenced block of ``README.md`` runs, each in a fresh scratch
  directory: a ``python`` block in-process, every command of a
  ``console`` (``$ ``-prompted) or ``bash`` block in a shell.  A failure
  names the README line.
* Every ``>>>`` example under ``src/repro`` runs.
* Every repository path, ``repro.*`` name, console script and
  ``python -m`` module the docs name exists, and so does every ``*.md``
  file the code under ``src/repro`` and ``benchmarks/`` names.  The
  verification recipe (``.claude/skills/verify/SKILL.md``) holds no
  measured number: timings, sizes and counts go stale, commands are
  checked here.
"""

import ast
import doctest
import fnmatch
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

from repro.api import HOMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
README = ROOT / "README.md"
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"
RECIPE = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
DOCS = (README, ARCHITECTURE, RECIPE)

BEGIN = "<!-- layer table: generated by tests/test_docs.py -->"
END = "<!-- end of layer table -->"
HEADER = ("| layer | lines | what it is | public names (`repro.api`) "
          "| entry points |\n|---|---:|---|---|---|")


# -- the layer table ---------------------------------------------------------
def _console_scripts():
    """layer -> console scripts, from ``[project.scripts]``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n")[1].split("\n[")[0]
    found = {}
    for name, target in re.findall(r'^(\S+) = "repro\.(\w+)', scripts, re.M):
        found.setdefault(target, []).append(name)
    return found


def _cell(items):
    return ", ".join(f"`{item}`" for item in items) or "—"


def layer_rows():
    """layer -> its table row, computed from the code."""
    scripts = _console_scripts()
    rows = {}
    for package in sorted(PACKAGE.iterdir()):
        init = package / "__init__.py"
        if not init.is_file():
            continue
        layer = package.name
        lines = sum(path.read_text(encoding="utf-8").count("\n")
                    for path in package.rglob("*.py"))
        docstring = ast.get_docstring(ast.parse(init.read_text(
            encoding="utf-8"))) or ""
        summary = docstring.split("\n")[0].replace("|", "\\|")
        names = sorted(name for name, home in HOMES.items()
                       if home.split(".")[1] == layer)
        entry = sorted(scripts.get(layer, []))
        if (package / "__main__.py").is_file():
            entry.append(f"python -m repro.{layer}")
        rows[layer] = (f"| `{layer}` | {lines} | {summary} | {_cell(names)} "
                       f"| {_cell(entry)} |")
    return rows


def _table_span(text):
    """(first, last) line index of the rows between the markers."""
    lines = text.split("\n")
    first = lines.index(BEGIN) + 3            # marker, header, rule
    return first, lines.index(END) - 1


def write_layer_table():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    lines = text.split("\n")
    first, last = _table_span(text)
    lines[first - 3:last + 2] = [BEGIN, HEADER,
                                 *layer_rows().values(), END]
    ARCHITECTURE.write_text("\n".join(lines), encoding="utf-8")


def test_architecture_layer_table_matches_the_code():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    lines = text.split("\n")
    first, last = _table_span(text)
    assert "\n".join(lines[first - 2:first]) == HEADER
    documented = {}
    for index in range(first, last + 1):
        layer = re.match(r"\| `(\w+)` \|", lines[index])
        documented[layer.group(1) if layer else lines[index]] = index + 1
    rows = layer_rows()
    where = ARCHITECTURE.relative_to(ROOT)
    problems = [f"{where}:{documented[layer]}: the `{layer}` row "
                f"disagrees with the code\n  doc:  "
                f"{lines[documented[layer] - 1]}\n  code: {row}"
                for layer, row in rows.items()
                if layer in documented
                and lines[documented[layer] - 1] != row]
    problems += [f"{where}: no row for layer `{layer}`"
                 for layer in rows if layer not in documented]
    problems += [f"{where}:{line}: row `{layer}` names no package under "
                 f"src/repro" for layer, line in documented.items()
                 if layer not in rows]
    assert not problems, "\n".join(problems) + (
        "\nrewrite the table with `PYTHONPATH=src python tests/test_docs.py`")


# -- README: every fenced block runs -----------------------------------------
FENCE = re.compile(r"^```(\w*)[ \t]*\n(.*?)^```[ \t]*$", re.M | re.S)


def fenced_blocks(path):
    """(language, first body line, body) of every fenced block."""
    text = path.read_text(encoding="utf-8")
    return [(match.group(1), text.count("\n", 0, match.start(2)) + 1,
             match.group(2)) for match in FENCE.finditer(text)]


def shell_commands(language, first, body):
    """(line, command) per command: a ``console`` block's ``$ `` lines,
    every line of a ``bash`` block; a trailing ``\\`` continues one."""
    commands, pending, start = [], "", first
    for offset, line in enumerate(body.split("\n")[:-1]):
        if not pending:
            if language == "console":
                if not line.startswith("$ "):
                    continue                   # output shown in the block
                line = line[2:]
            elif not line.strip() or line.lstrip().startswith("#"):
                continue
            start = first + offset
        if line.endswith("\\"):
            pending += line[:-1]
            continue
        commands.append((start, pending + line))
        pending = ""
    return commands


README_BLOCKS = fenced_blocks(README)


def _block_id(block):
    return f"README.md:{block[1]}"


def test_readme_fences_are_all_runnable():
    assert {language for language, _, _ in README_BLOCKS} <= {
        "python", "console", "bash"}, "a README block this test cannot run"
    assert any(language == "python" for language, _, _ in README_BLOCKS)


@pytest.mark.parametrize("block", [block for block in README_BLOCKS
                                   if block[0] == "python"], ids=_block_id)
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    _, first, body = block
    monkeypatch.chdir(tmp_path)
    # padded so a traceback's README.md line numbers are the file's own
    code = compile("\n" * (first - 1) + body, str(README), "exec")
    try:
        exec(code, {"__name__": "__main__"})
    except Exception as exc:
        line = [frame.lineno for frame in traceback.extract_tb(
            exc.__traceback__) if frame.filename == str(README)][-1]
        pytest.fail(f"README.md:{line}: {type(exc).__name__}: {exc}")


def _shell_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # ``python`` in a command is the interpreter running the tests
    env["PATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(sys.executable), env.get("PATH")]))
    return env


@pytest.mark.parametrize("block", [block for block in README_BLOCKS
                                   if block[0] in ("console", "bash")],
                         ids=_block_id)
def test_readme_commands_run(block, tmp_path):
    commands = shell_commands(*block)
    assert commands, f"README.md:{block[1]}: a block with no command"
    for line, command in commands:
        done = subprocess.run(command, shell=True, cwd=tmp_path,
                              env=_shell_env(), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, (
            f"README.md:{line}: `{command}` exited {done.returncode}\n"
            f"{done.stderr[-2000:]}")


# -- doctests ----------------------------------------------------------------
def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


DOCTEST_MODULES = sorted(
    _module_name(path) for path in PACKAGE.rglob("*.py")
    if path.name != "__main__.py"
    and ">>>" in path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", DOCTEST_MODULES)
def test_doctests_run(module, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tests = [test for test in doctest.DocTestFinder().find(
        importlib.import_module(module)) if test.examples]
    assert tests, f"{module} has a '>>>' that no doctest collects"
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    report = []
    for test in tests:
        runner.run(test, out=report.append)
    assert not runner.failures, "".join(report)


# -- what the docs name exists -----------------------------------------------
TOP_LEVEL = {path.name for path in ROOT.iterdir()}
#: run artifacts a doc may name although a fresh checkout lacks them
IGNORED = [line for line in (ROOT / ".gitignore").read_text(
    encoding="utf-8").split("\n") if line and not line.startswith("#")]
CODE_SPAN = re.compile(r"`([^`\n]+)`")


def _missing_path(token):
    """Why a repository path ``token`` names nothing, or None."""
    path, _, names = token.partition("::")
    path = path.rstrip("/")
    matches = sorted(ROOT.glob(path)) if "*" in path else [ROOT / path]
    if not matches or not matches[0].exists():
        return "no such path"
    for name in filter(None, names.split("::")):
        name = name.split("[")[0]
        if not re.search(rf"^\s*(?:async def|def|class) {name}\b|^{name} =",
                         matches[0].read_text(encoding="utf-8"), re.M):
            return f"defines no `{name}`"
    return None


def _missing_name(dotted):
    """Why ``repro.x.y`` resolves to nothing, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            found = importlib.util.find_spec(module) is not None
        except ModuleNotFoundError:
            found = False
        if found:
            value = importlib.import_module(module)
            for attr in parts[cut:]:
                if not hasattr(value, attr):
                    return f"{module} has no `{'.'.join(parts[cut:])}`"
                value = getattr(value, attr)
            return None
    return "no such module"


def _references(path):
    """(line, token, why it is broken) for each reference in ``path``."""
    scripts = {name for names in _console_scripts().values()
               for name in names}
    broken = []
    for number, line in enumerate(
            path.read_text(encoding="utf-8").split("\n"), start=1):
        for token in CODE_SPAN.findall(line):
            for word in re.findall(r"[\w./*:\[\]-]+", token):
                why = None
                if word.split("/")[0] in TOP_LEVEL and "/" in word:
                    if not any(fnmatch.fnmatch(word, pattern)
                               for pattern in IGNORED):
                        why = _missing_path(word)
                elif re.fullmatch(r"repro(\.\w+)+", word):
                    why = _missing_name(word)
                elif re.fullmatch(r"repro-\w+", word) and \
                        word not in scripts:
                    why = "no such console script"
                if why:
                    broken.append((number, word, why))
        for module in re.findall(r"python -m ([\w.]+)", line):
            if importlib.util.find_spec(module) is None:
                broken.append((number, module, "no such module"))
    return broken


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc.name)
def test_what_the_docs_name_exists(doc, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))           # ``python -m bench``
    broken = [f"{doc.relative_to(ROOT)}:{line}: `{word}`: {why}"
              for line, word, why in _references(doc)]
    assert not broken, "\n".join(broken)


MARKDOWN = re.compile(r"[\w./-]*\w\.md\b")


def test_every_markdown_file_the_code_names_exists():
    """A ``*.md`` path named under ``src/repro`` or ``benchmarks/`` (in
    a docstring or a comment) is relative to the repository root, and
    exists: a pointer to a document nobody can open explains nothing."""
    missing = [f"{path.relative_to(ROOT)}:{number}: `{name}`"
               for path in sorted([*PACKAGE.rglob("*.py"),
                                   *(ROOT / "benchmarks").rglob("*.py")])
               for number, line in enumerate(path.read_text(
                   encoding="utf-8").split("\n"), start=1)
               for name in MARKDOWN.findall(line)
               if not (ROOT / name).is_file()]
    assert not missing, "no such file:\n" + "\n".join(missing)


MEASURED = re.compile(
    r"\b\d[\d.,]*\s?(?:s|ms|us|µs|min|KiB|MiB|GiB|KB|MB|%|×|x|us/op|"
    r"ops/s|events/s|tests|passed|lines)(?![\w/])")


def test_the_verification_recipe_holds_no_measured_number():
    found = [f"{RECIPE.relative_to(ROOT)}:{number}: {match.group(0)!r}"
             for number, line in enumerate(
                 RECIPE.read_text(encoding="utf-8").split("\n"), start=1)
             for match in MEASURED.finditer(line)]
    assert not found, "\n".join(found)


if __name__ == "__main__":
    write_layer_table()
