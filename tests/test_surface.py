"""Every public function, class or method defined in src/cocycle_lab must be
used in src/ outside its own definition, or in the README's Python example:
library code that only tests call belongs in tests/helpers.py.  A function
or class counts as used when its name occurs; a method only when it is read
as an attribute (``x.name``), so a local variable or a parameter of the same
name does not count.  The README's module map names only what each module
defines."""

import ast
import glob
import importlib
import inspect
import os
import re

from cocycle_lab import cli

SRC = os.path.dirname(cli.__file__)
README = os.path.join(SRC, os.pardir, os.pardir, "README.md")

# the reference group law and evaluation the tests compare the engine against
ALLOWED = {
    "GroupPresentation.multiply": "brute-force group law for the oracles",
    "GroupPresentation.inverse": "brute-force commutators and inverse axioms",
    "GroupPresentation.identity": "identity element for the group-law oracles",
    "Morphism.apply": "reduced image, to check projection and section pointwise",
    "Poly.eval": "pointwise evaluation for the phase and defect oracles",
}


def identifier_nodes(tree):
    """(identifier, node) for every name and attribute name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def public_definitions(tree):
    """(qualified name, node) of the public module-level functions and
    classes and of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def test_every_public_definition_has_a_caller_in_src_or_the_readme():
    trees = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read(), filename=path))
    uses = {}
    for tree in trees:
        for name, node in identifier_nodes(tree):
            uses.setdefault(name, []).append(node)
    with open(README, encoding="utf-8") as fh:
        example = "\n".join(re.findall(r"```python\n(.*?)```", fh.read(), re.S))
    readme_nodes = list(identifier_nodes(ast.parse(example)))
    assert {"decide", "phase_from_monomials"} <= {name for name, _ in readme_nodes}
    defined, unused = set(), []
    for tree in trees:
        for qual, node in public_definitions(tree):
            defined.add(qual)
            name = qual.rsplit(".", 1)[-1]
            kinds = (ast.Attribute,) if "." in qual else (ast.Name, ast.Attribute)
            own = set(ast.walk(node))
            if (qual not in ALLOWED
                    and not any(n == name and isinstance(use, kinds) for n, use in readme_nodes)
                    and all(use in own for use in uses.get(name, ())
                            if isinstance(use, kinds))):
                unused.append(qual)
    assert unused == []
    assert set(ALLOWED) <= defined


def resolves(mod, dotted):
    """Whether a dotted name is an attribute of the module or of one of the
    classes it defines."""
    owners = [mod] + [c for c in vars(mod).values()
                      if inspect.isclass(c) and c.__module__ == mod.__name__]
    for obj in owners:
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_module_map_names_only_what_each_module_defines():
    with open(README, encoding="utf-8") as fh:
        rows = re.findall(r"^\| (`.*?) +\| (.*) \|$", fh.read(), re.M)
    assert len(rows) == 8
    stale = []
    for mod_cell, contents in rows:
        mods = [importlib.import_module(f"cocycle_lab.{m}") for m in re.findall(r"`(\w+)`", mod_cell)]
        stale += [(mod_cell, name) for name in re.findall(r"`([A-Za-z_][\w.]*)`", contents)
                  if not any(resolves(mod, name) for mod in mods)]
    assert stale == []
