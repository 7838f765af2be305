"""Print the size of the specsep package: total lines, code-only lines and
the number of public names, then each module's code-only lines; with
--names, the public names instead, one per line.

Code-only lines skip blank lines, comment lines, and the lines of module,
class and function docstrings.  Public names are the names in
dir(specsep) that do not start with an underscore.

Run from the repository root:  python tools/src_size.py [--names] [src/specsep]
"""

import ast
import importlib
import sys
from pathlib import Path


def docstring_lines(tree):
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def file_size(path):
    """(total lines, code-only lines) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, start=1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))
    return len(lines), code


def main(argv):
    names_only = "--names" in argv[1:]
    args = [a for a in argv[1:] if a != "--names"]
    package = Path(args[0] if args else "src/specsep")
    total = code = 0
    per_module = []
    for path in sorted(package.rglob("*.py")):
        t, c = file_size(path)
        total += t
        code += c
        per_module.append((path.relative_to(package).as_posix(), c))
    sys.path.insert(0, str(package.parent))
    module = importlib.import_module(package.name)
    public = [name for name in dir(module) if not name.startswith("_")]
    if names_only:
        print("\n".join(public))
        return
    print(f"total lines: {total}")
    print(f"code-only lines: {code}")
    print(f"public names: {len(public)}")
    for name, c in per_module:
        print(f"  {name}: {c}")


if __name__ == "__main__":
    main(sys.argv)
