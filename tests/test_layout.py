"""Source-layout guards: family-specific decisions live in families.py.

Every choice that differs between families goes through the family's
lattice kind or through data its builder sets, so no module compares a
`.name` attribute and no module but families.py spells a family name.
"""

import ast
import pathlib

from qladder import families

SRC = pathlib.Path(families.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
FAMILY_STRINGS = set(families.FAMILY_NAMES) | set(families._ALIASES)


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"families.py", "checks.py", "ladder.py", "cli.py"}


def test_no_comparison_on_a_name_attribute():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    if isinstance(operand, ast.Attribute) and operand.attr == "name":
                        found.append(f"{path.name}:{node.lineno}")
    assert not found, f".name compared at {found}"


def test_family_names_spelled_only_in_families_module():
    found = []
    for path in MODULES:
        if path.name == "families.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Constant) and node.value in FAMILY_STRINGS:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, f"family names outside families.py: {found}"
