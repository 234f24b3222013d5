"""The verifier checks the hierarchy through public names only.

``verify`` runs its checks on what ``hierarchy`` and ``baker`` return: the
residuals that reduce a state's entry columns live next to the operations
they check, so the verifier imports nothing from ``columns``, no private
(single-underscore) name of another ``aknsd`` module, and reads no state's
``_columns``.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "aknsd" / "verify.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_verify_reads_no_column_layer_and_no_private_name():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    modules, private, attributes = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("aknsd")):
            module = (node.module or "").removeprefix("aknsd").lstrip(".")
            modules.append(module)
            if module == "":  # from . import a, b: each name is a module of the package
                modules.extend(alias.name for alias in node.names)
            private.extend(alias.name for alias in node.names if _private(alias.name))
        elif isinstance(node, ast.Import):
            modules.extend(alias.name.removeprefix("aknsd").lstrip(".") for alias in node.names
                           if alias.name.startswith("aknsd"))
        elif isinstance(node, ast.Attribute) and node.attr == "_columns":
            attributes.append(node.lineno)
    assert ("columns" in modules, private, attributes) == (False, [], [])
