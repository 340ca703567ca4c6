"""The value classes: field-wise equality, hashing and repr, immutability
(Problem excepted), and a start-up that loads no code generation."""

import glob
import importlib
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cocycle_lab import cli, groups, zlinalg as zl
from cocycle_lab._value import Value
from cocycle_lab.cocycles import CaseLeaf, Cocycle, phase_from_monomials
from cocycle_lab.decision import (ZSTABLE, Analysis, Branch, Inapplicable, ProductRuleOutcome,
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
    CaseLeaf: lambda: CaseLeaf(context(), zl.SubgroupLattice((0,), ((1,),)), ("x1 in Z",)),
    Branch: lambda: Branch("unconditional", (), None, math.inf, ZSTABLE),
    TraceNode: lambda: TraceNode(0, plane(), (), ZSTABLE, ("note",)),
    Verdict: lambda: Verdict(ZSTABLE, certificate=TraceNode(0, plane(), (), ZSTABLE)),
    Analysis: lambda: Analysis(cocycle(), context()),
    Inapplicable: lambda: Inapplicable("no rule"),
    ProductRuleOutcome: lambda: ProductRuleOutcome(True, ZSTABLE, "forward rule"),
    DensityDatum: lambda: DensityDatum(Fraction(1, 2), 1),
    FrameVerdict: lambda: FrameVerdict("yes", "no-by-necessity", ("reason",)),
    MultiwindowBound: lambda: MultiwindowBound(1, 2, "statement"),
}


def test_every_value_class_has_a_builder():
    found = set()
    for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
        mod = importlib.import_module(f"cocycle_lab.{os.path.basename(path)[:-3]}")
        found |= {c for c in vars(mod).values()
                  if inspect.isclass(c) and issubclass(c, Value) and c is not Value}
    assert found == set(BUILDERS) | {Problem}


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


def test_problem_is_mutable_and_unhashable():
    p, q = (Problem(plane(), table(), cocycle(), context()) for _ in range(2))
    assert p == q
    p.homogeneous = True
    assert p != q and p.homogeneous
    with pytest.raises(TypeError):
        hash(p)


def test_cli_import_loads_no_code_generation():
    """dataclasses and the modules it imports (inspect, ast, dis, tokenize)
    cost a fresh process about 30 ms of its start-up."""
    probe = "import sys, cocycle_lab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert out.stdout == "[]\n"


def test_the_generic_constructor_binds_like_a_signature():
    """Positional and keyword arguments bind to the fields, defaults fill
    the rest, and a missing, unknown, repeated or extra argument raises."""
    assert Classification("integer") == Classification(kind="integer", denominator=None)
    assert Verdict(ZSTABLE, notes=("n",)).simple == Verdict(ZSTABLE).simple
    assert CaseLeaf(context(), None, skipped=("s",)).conditions == ()
    for args, kwargs in [((), {}), (("integer",), {"kind": "rational"}),
                         (("integer",), {"nope": 1}), (("integer", 1, 2), {})]:
        with pytest.raises(TypeError):
            Classification(*args, **kwargs)
