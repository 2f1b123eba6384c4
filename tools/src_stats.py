"""Size of the package source, as each change reports it.

    python tools/src_stats.py [SRC_DIR]

Prints three numbers for the .py files under SRC_DIR (default `src/`
next to this script's directory): the line count, the function
parameters with a default value, and the dataclass fields with a default
value.  Only the standard library's `ast` is used, so the source is
parsed, never imported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def stats(src: Path) -> dict:
    lines = params = fields = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign)
                              and s.value is not None for s in node.body)
    return {"lines": lines, "defaulted_params": params,
            "dataclass_fields_with_default": fields}


def main(argv) -> int:
    src = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src"
    for key, val in stats(src).items():
        print(f"{key}: {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
