"""The README's library example runs as written, under the suite's warning filters, and the
package root exports only the names it shows."""

import ast
import re
import types
from pathlib import Path

import opsig

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(_library_example(), "README.md (Library use)", "exec"), {})


def test_root_exports_only_the_example_names_and_eval_config():
    shown = {
        alias.name
        for node in ast.walk(ast.parse(_library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "opsig" and node.level == 0
        for alias in node.names
    }
    exported = {
        name
        for name, value in vars(opsig).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == shown | {"EvalConfig"}
