"""Print the size of the specsep package: total lines, code-only lines and
the number of public names, then each module's code-only lines; with
--names, the public names instead, one per line; with --functions, the
code-only lines of each top-level function and class instead, module by
module, one "<module> <name> <lines>" line each.

Code-only lines skip blank lines, comment lines, and the lines of module,
class and function docstrings.  Public names are the names in
dir(specsep) that do not start with an underscore.

Run from the repository root:
    python tools/src_size.py [--names | --functions] [src/specsep]
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
    """(total lines, code-only lines, [(name, code-only lines)] of each
    top-level function and class) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    skip = docstring_lines(tree)

    def code(first, last):
        return sum(1 for number in range(first, last + 1)
                   if number not in skip and lines[number - 1].strip()
                   and not lines[number - 1].strip().startswith("#"))

    defs = [(node.name, code(min([node.lineno] + [d.lineno for d in
                                                  node.decorator_list]),
                             node.end_lineno))
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
    return len(lines), code(1, len(lines)), defs


def main(argv):
    flags = {"--names", "--functions"}
    args = [a for a in argv[1:] if a not in flags]
    package = Path(args[0] if args else "src/specsep")
    total = code = 0
    per_module = []
    for path in sorted(package.rglob("*.py")):
        t, c, defs = file_size(path)
        total += t
        code += c
        per_module.append((path.relative_to(package).as_posix(), c, defs))
    if "--functions" in argv[1:]:
        for name, _, defs in per_module:
            for def_name, c in defs:
                print(f"{name} {def_name} {c}")
        return
    sys.path.insert(0, str(package.parent))
    module = importlib.import_module(package.name)
    public = [name for name in dir(module) if not name.startswith("_")]
    if "--names" in argv[1:]:
        print("\n".join(public))
        return
    print(f"total lines: {total}")
    print(f"code-only lines: {code}")
    print(f"public names: {len(public)}")
    for name, c, _ in per_module:
        print(f"  {name}: {c}")


if __name__ == "__main__":
    main(sys.argv)
