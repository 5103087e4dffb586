"""Print the package's option surface: public names, parameters and config keys.

Run from the repository root with ``PYTHONPATH=src python .github/option_surface.py
[NAMES [PARAMETERS [KEYS]]]``.  Given maxima, it exits 1 when a count exceeds its
maximum, so the surface grows only by an edit of those numbers.
A public name is a module-level function, class or assignment of ``src/tvfspec``
whose name has no leading underscore, or such a method, property or field in
the body of a public class.  Parameters are counted with ``inspect.signature``
over public functions, class constructors and public methods, ``self`` and
``cls`` left out.  Config keys are the leaves of ``cli._TABLE``.
"""

import ast
import importlib
import inspect
import pathlib
import sys

from tvfspec import cli


def defined(node):
    """Names a module- or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public(nodes):
    return [name for node in nodes for name in defined(node) if not name.startswith("_")]


def parameters(obj):
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):  # a class with a builtin constructor
        return 0
    return sum(name not in ("self", "cls") for name in signature.parameters)


def leaves(table):
    return sum(leaves(rule) if type(rule) is dict else 1 for rule in table.values())


names = params = 0
for path in sorted(pathlib.Path("src/tvfspec").glob("*.py")):
    module = importlib.import_module(f"tvfspec.{path.stem}".removesuffix(".__init__"))
    for node in ast.parse(path.read_text()).body:
        for name in public([node]):
            names += 1
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                params += parameters(obj)
            if isinstance(node, ast.ClassDef):
                for attr in public(node.body):
                    names += 1
                    member = inspect.getattr_static(obj, attr, None)  # None for a field
                    if inspect.isfunction(getattr(member, "__func__", member)):
                        params += parameters(getattr(obj, attr))
counts = {"public names": names,
          "parameters of public functions, constructors and methods": params,
          "config keys (leaves of cli._TABLE)": leaves(cli._TABLE)}
for label, count in counts.items():
    print(f"{label}: {count}")
over = [f"{label}: {count} > {most}"
        for (label, count), most in zip(counts.items(), map(int, sys.argv[1:])) if count > most]
if over:
    print("option surface above its maxima: " + "; ".join(over), file=sys.stderr)
    sys.exit(1)
