"""The CI workflow names only tests that exist.

pytest ignores a --deselect whose node id matches nothing, without a word,
so a test renamed or deleted would silently run again in the step that
deselects it.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")
BASELINE_STEP = "- name: Whole suite at numpy's baseline SIMD level"


def _baseline_deselects() -> list[str]:
    """The node ids the baseline-SIMD step deselects, in order."""
    with open(WORKFLOW, encoding="utf-8") as fh:
        text = fh.read()
    step = text[text.index(BASELINE_STEP) + len(BASELINE_STEP):].split("- name:")[0]
    return re.findall(r"--deselect\s+(\S+)", step)


def _defines(path: str, names: list[str]) -> bool:
    """Whether the module at path defines the class and function chain names."""
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read(), path).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_baseline_deselect_names_an_existing_test():
    ids = _baseline_deselects()
    assert ids, "the baseline-SIMD step deselects nothing"
    for node_id in ids:
        path, *names = node_id.split("::")
        assert names, node_id
        names[-1] = names[-1].split("[")[0]  # a parametrized case names its function
        assert os.path.isfile(os.path.join(ROOT, path)), node_id
        assert names[-1].startswith("test_"), node_id
        assert _defines(os.path.join(ROOT, path), names), node_id
