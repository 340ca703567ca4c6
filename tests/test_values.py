"""The value classes: field-wise equality, hashing and repr, immutability,
and a start-up that loads no code generation."""

import glob
import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cocycle_lab import cli, groups, zlinalg as zl
from cocycle_lab._value import Value
from cocycle_lab.cocycles import CaseLeaf, Cocycle, phase_from_monomials
from cocycle_lab.decision import (ZSTABLE, Analysis, Branch, ProductRuleOutcome,
                                  TraceNode, Verdict)
from cocycle_lab.exact import (Classification, KNumber, RationalityContext, SymbolTable,
                               empty_context, symbol)
from cocycle_lab.poly import Poly
from cocycle_lab.problem import Problem
from cocycle_lab.timefreq import DensityDatum, FrameVerdict, MultiwindowBound

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def table():
    return SymbolTable(("theta",), (("xi", 0),))


def plane():
    return groups.abelian((0, 0))


def cocycle():
    return phase_from_monomials(plane(), table(), [(symbol(table(), "theta"), (1, 0), (0, 1))])


def context():
    t = table()
    return empty_context(t).assume_rational(symbol(t, "xi"))


def leaf():
    return CaseLeaf(context(), zl.SubgroupLattice((0,), ((1,),)), ("x1 in Z",))


def node():
    return TraceNode(0, plane(), (), ZSTABLE, ("note",))


# one builder per immutable value class; each call builds every field anew
BUILDERS = {
    SymbolTable: table,
    KNumber: lambda: KNumber(table(), (2, 1, (("theta", 2),))),
    Classification: lambda: Classification("rational", 2),
    RationalityContext: context,
    zl.QuotientStructure: lambda: zl.SubgroupLattice((0, 3), ((1, 1),)).quotient_structure,
    zl.Parametrization: lambda: zl.SubgroupLattice((0,), ((2,),)).parametrization,
    zl.SubgroupLattice: lambda: zl.SubgroupLattice((0, 3), ((1, 1),)),
    groups.GroupPresentation: groups.g3,
    groups.Morphism: lambda: groups.Morphism(plane(), plane(), ((0, 1), (1, 0))),
    groups.QuotientData: lambda: groups.quotient_by_central(
        plane(), zl.SubgroupLattice((0, 0), ((1, 0),))),
    Poly: lambda: Poly.var(2, table(), 1),
    Cocycle: cocycle,
    CaseLeaf: leaf,
    Branch: lambda: Branch(leaf(), ZSTABLE, ("x1 in Z",), node()),
    TraceNode: node,
    Verdict: lambda: Verdict(node()),
    Analysis: lambda: Analysis(cocycle(), context()),
    ProductRuleOutcome: lambda: ProductRuleOutcome(True, ZSTABLE, "forward rule"),
    DensityDatum: lambda: DensityDatum(Fraction(1, 2), 1),
    FrameVerdict: lambda: FrameVerdict("yes", "no-by-necessity", ("reason",)),
    MultiwindowBound: lambda: MultiwindowBound(1, 2, "statement"),
    Problem: lambda: Problem(plane(), table(), cocycle(), context(), None, False),
}


def test_every_value_class_has_a_builder():
    found = set()
    for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
        mod = importlib.import_module(f"cocycle_lab.{os.path.basename(path)[:-3]}")
        found |= {c for c in vars(mod).values()
                  if inspect.isclass(c) and issubclass(c, Value) and c is not Value}
    assert found == set(BUILDERS)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_immutable_values(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != object() and a != tuple(getattr(a, f) for f in cls._fields)
    for field in cls._fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is before


def test_repr_names_the_fields_in_constructor_order():
    assert repr(Classification("integer", 1)) == "Classification(kind='integer', denominator=1)"
    assert repr(DensityDatum(0, 1)) == "DensityDatum(lower=Fraction(0, 1), upper=Fraction(1, 1))"


def test_cli_import_loads_no_code_generation():
    """dataclasses and the modules it imports (inspect, ast, dis, tokenize)
    cost a fresh process about 30 ms of its start-up; fractions (with
    decimal and numbers) 1.7–3 ms, and the engine computes without it.
    timefreq, which keeps Fractions for its density intervals, loads only
    with the tf and bound commands: a verdict on a fixture with a [tf]
    density line, which the parser keeps as integer pairs, loads neither."""
    probe = ("import sys, cocycle_lab.cli\n"
             "loaded = lambda: sorted({'dataclasses', 'inspect', 'fractions', 'decimal', "
             "'numbers', 'cocycle_lab.timefreq'} & set(sys.modules))\n"
             "print(loaded(), file=sys.stderr)\n"
             "if sys.argv[1:]:\n"
             "    code = cocycle_lab.cli.main(sys.argv[1:])\n"
             "    print(code, loaded(), file=sys.stderr)\n")
    fixture = os.path.join(SRC, "cocycle_lab", "fixtures", "z-times-h3-irr-rat.problem")
    for args, want in [([], "[]\n"), (["verdict", "--json", fixture], "[]\n2 []\n")]:
        out = subprocess.run([sys.executable, "-S", "-c", probe, *args], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True)
        assert out.stderr == want


def test_the_generic_constructor_binds_like_a_signature():
    """Positional and keyword arguments bind to the fields, defaults fill
    the rest, and a missing, unknown, repeated or extra argument raises."""
    assert Classification("integer") == Classification(kind="integer", denominator=None)
    assert Verdict(node(), notes=("n",)).simple == Verdict(node()).simple
    assert CaseLeaf(context(), None, skipped=("s",)).conditions == ()
    for args, kwargs in [((), {}), (("integer",), {"kind": "rational"}),
                         (("integer",), {"nope": 1}), (("integer", 1, 2), {})]:
        with pytest.raises(TypeError):
            Classification(*args, **kwargs)


def test_case_leaves_and_branches_bind_like_the_generic_constructor():
    """CaseLeaf and Branch, built per case leaf, have constructors of their
    own that bind positional and keyword arguments and CaseLeaf's defaults
    as the generic one does, and raise on a missing or extra argument."""
    assert CaseLeaf.__init__ is not Value.__init__ and Branch.__init__ is not Value.__init__
    ctx, lat = context(), zl.SubgroupLattice((0,), ((1,),))
    assert CaseLeaf(ctx, lat) == CaseLeaf(ctx, lat, (), ())
    assert CaseLeaf(ctx, lat, skipped=("s",)) == CaseLeaf(lattice=lat, ctx=ctx, conditions=(),
                                                          skipped=("s",))
    assert Branch(leaf(), ZSTABLE, (), None) == Branch(leaf(), ZSTABLE, notes=(), child=None)
    for build in (lambda: CaseLeaf(ctx), lambda: CaseLeaf(ctx, lat, (), (), 1),
                  lambda: CaseLeaf(ctx, lat, nope=1), lambda: Branch(leaf(), ZSTABLE, ()),
                  lambda: Branch(leaf(), ZSTABLE, (), None, verdict=ZSTABLE)):
        with pytest.raises(TypeError):
            build()
