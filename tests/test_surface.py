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


def src_trees():
    """(module name, syntax tree) of every module in src/cocycle_lab."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path)[:-3], ast.parse(fh.read(), filename=path)


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


def readme_example():
    """The source of the README's Python example."""
    with open(README, encoding="utf-8") as fh:
        return "\n".join(re.findall(r"```python\n(.*?)```", fh.read(), re.S))


def test_every_public_definition_has_a_caller_in_src_or_the_readme():
    trees = [tree for _, tree in src_trees()]
    uses = {}
    for tree in trees:
        for name, node in identifier_nodes(tree):
            uses.setdefault(name, []).append(node)
    readme_nodes = list(identifier_nodes(ast.parse(readme_example())))
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


def test_readme_example_returns_what_its_comments_state():
    scope = {}
    exec(readme_example(), scope)
    assert scope["verdict"].z_stable == "ZStable"
    assert scope["verdict"].certificate.to_dict()["verdict"] == "ZStable"
    simple, branches, _ = scope["decide_simplicity"](scope["a"])
    assert simple == "yes" and [b.verdict for b in branches] == ["yes"]


# the except clauses that may name ValueError or Exception: stdlib parses
# (int, Fraction, list.index) of problem-file and budget text, and main's
# final catch-all, which reports any other exception as an internal error
BROAD_CATCHES = {
    ("problem", "_rational"): 1,
    ("problem", "_parse_group"): 4,
    ("problem", "_parse_monomial"): 1,
    ("cli", "_positive_budget"): 1,
    ("cli", "main"): 1,
}


def owned_nodes(node, owner=None):
    """(name of the innermost enclosing function, node) for every node below
    node."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        yield from owned_nodes(child, inner)


def test_no_handler_catches_a_fault_as_an_outcome():
    """An except clause names the outcome it handles (InputError,
    Unsupported, BudgetExceeded), never ValueError or Exception, alone or in
    a tuple, nor nothing at all: a fault must reach cli.main's catch-all and
    exit 3, not read as undecided or as an input error."""
    found = {}
    for mod, tree in src_trees():
        for owner, handler in owned_nodes(tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            names = ({n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
                     if handler.type else {"Exception"})
            if names & {"ValueError", "Exception", "BaseException"}:
                found[mod, owner] = found.get((mod, owner), 0) + 1
    assert found == BROAD_CATCHES


# every read of a presentation's bilinear entries in src, by (module,
# function): the places a change to how the group law is stored (power
# relations, say) must visit.  Everything else reads the law through
# GroupPresentation.carry, a Morphism or GroupPresentation.commutator_rows
BILINEAR_READS = {
    ("groups", "_check"): 2,
    ("groups", "feeding_coords"): 2,
    ("groups", "receiving_coords"): 1,
    ("groups", "carry"): 1,
    ("groups", "commutator_rows"): 1,
    ("cocycles", "_law_scalars"): 1,
    ("cocycles", "validate_cocycle"): 1,
    ("cocycles", "_check_additive"): 1,
    ("cocycles", "product_split"): 1,
    ("problem", "_parse_group"): 1,
}


def test_bilinear_entries_are_read_only_at_the_pinned_places():
    """induce_gamma reads the quotient through quotient_by_central's maps
    and the quotient's commutator rows, never through its entries."""
    found = {}
    for mod, tree in src_trees():
        for owner, node in owned_nodes(tree):
            if isinstance(node, ast.Attribute) and node.attr == "bilinear":
                found[mod, owner] = found.get((mod, owner), 0) + 1
    assert ("cocycles", "induce_gamma") not in BILINEAR_READS
    assert found == BILINEAR_READS


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
