"""THREAT_MODEL.md and the tests it cites stay in step.

Every ``tests/<file>.py::[Class::]name[param]`` that THREAT_MODEL.md cites
must name a test defined under ``tests/``, and every test marked
``xfail(strict=True, ...)`` must be cited, so that a renamed test cannot
orphan a claim and a new open gap cannot go unstated.  The test files are
read with ``ast``, never imported.
"""

import ast
import itertools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAT_MODEL = ROOT / "THREAT_MODEL.md"
CITATION = re.compile(r"(tests/[\w/]+\.py)::((?:\w+::)?\w+)(?:\[([^\]\s]+)\])?")


def citations(text: str) -> set[tuple[str, str, str | None]]:
    """``(path, [Class::]name, param or None)`` for each citation."""
    return {match.groups() for match in CITATION.finditer(text)}


def _is_strict_xfail(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and
            isinstance(node.func, ast.Attribute) and
            node.func.attr == "xfail" and
            any(keyword.arg == "strict" and
                isinstance(keyword.value, ast.Constant) and
                keyword.value.value is True
                for keyword in node.keywords))


def _param_ids(function: ast.FunctionDef) -> set[str] | None:
    """The ids of ``function``'s parametrized runs, or ``None`` if it has
    none.  Argument lists that are not literals give no ids."""
    per_decorator = []
    # pytest joins the ids of stacked decorators innermost first.
    for decorator in reversed(function.decorator_list):
        if not (isinstance(decorator, ast.Call) and
                isinstance(decorator.func, ast.Attribute) and
                decorator.func.attr == "parametrize"):
            continue
        keywords = {k.arg: k.value for k in decorator.keywords}
        try:
            if "ids" in keywords:
                ids = [str(i) for i in ast.literal_eval(keywords["ids"])]
            else:
                ids = ["-".join(map(str, value)) if isinstance(value, tuple)
                       else str(value)
                       for value in ast.literal_eval(
                           decorator.args[1] if len(decorator.args) > 1
                           else keywords.get("argvalues"))]
        except ValueError:
            ids = []
        per_decorator.append(ids)
    if not per_decorator:
        return None
    return {"-".join(combination)
            for combination in itertools.product(*per_decorator)}


def defined_tests(path: Path) -> dict[str, tuple[ast.FunctionDef, bool]]:
    """``[Class::]name`` of each test in ``path``, with its definition and
    whether it is marked as a strict ``xfail``."""
    tests = {}

    def collect(body, prefix, strict):
        for node in body:
            marked = strict or any(_is_strict_xfail(sub)
                                   for decorator in getattr(
                                       node, "decorator_list", [])
                                   for sub in ast.walk(decorator))
            if isinstance(node, ast.ClassDef) and \
                    node.name.startswith("Test"):
                collect(node.body, f"{node.name}::", marked)
            elif isinstance(node, ast.FunctionDef) and \
                    node.name.startswith("test_"):
                tests[prefix + node.name] = (node, marked)

    collect(ast.parse(path.read_text()).body, "", False)
    return tests


def unresolved(cited, root: Path) -> list[str]:
    """The citations in ``cited`` that name no defined test or run."""
    missing = []
    for path, name, param in sorted(cited, key=str):
        label = f"{path}::{name}" + (f"[{param}]" if param else "")
        file = root / path
        tests = defined_tests(file) if file.is_file() else {}
        if name not in tests:
            missing.append(label)
        elif param is not None:
            ids = _param_ids(tests[name][0])
            if ids is None or param not in ids:
                missing.append(label)
    return missing


def uncited_strict_xfails(cited, root: Path) -> list[str]:
    """The strict ``xfail`` tests under ``root / "tests"`` that ``cited``
    does not name; a citation of one run names its test."""
    named = {(path, name) for path, name, _ in cited}
    return [f"{path}::{name}"
            for file in sorted((root / "tests").rglob("test_*.py"))
            for path in [file.relative_to(root).as_posix()]
            for name, (_, strict) in defined_tests(file).items()
            if strict and (path, name) not in named]


def test_every_citation_names_a_defined_test():
    cited = citations(THREAT_MODEL.read_text())
    assert cited
    assert unresolved(cited, ROOT) == []


def test_every_strict_xfail_is_cited():
    cited = citations(THREAT_MODEL.read_text())
    assert uncited_strict_xfails(cited, ROOT) == []


def test_checker_reads_names_params_and_marks(tmp_path):
    # A small tree of its own: the checks above pass vacuously if the
    # parser finds no tests, no params or no strict marks.
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "import pytest\n"
        "@pytest.mark.xfail(strict=True, raises=AssertionError)\n"
        "@pytest.mark.parametrize('b', ['u', 'v'])\n"
        "@pytest.mark.parametrize('a', [1, 2], ids=['one', 'two'])\n"
        "def test_gap(a, b):\n    assert False\n"
        "class TestFlow:\n"
        "    @pytest.mark.xfail(strict=False)\n"
        "    def test_loose(self):\n        pass\n"
        "    def test_ok(self):\n        pass\n")
    cited = citations("`tests/test_x.py::test_gap[two-v]`, "
                      "`tests/test_x.py::TestFlow::test_ok`, "
                      "`tests/test_x.py::TestFlow::test_gone` and "
                      "`tests/test_x.py::test_gap[v-two]`.")
    assert unresolved(cited, tmp_path) == [
        "tests/test_x.py::TestFlow::test_gone",
        "tests/test_x.py::test_gap[v-two]"]
    assert uncited_strict_xfails(cited, tmp_path) == []
    assert uncited_strict_xfails(set(), tmp_path) == [
        "tests/test_x.py::test_gap"]
