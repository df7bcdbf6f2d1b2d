"""The grading is stated once, in ``Context.weights``.

Every degree formula reads that vector and none decides p = 2 itself;
this stands in for a lint rule over the five formulas that would
otherwise each carry a branch on the prime.
"""

import inspect

from dyerlashof import correspondence, invariants, sequences

FORMULAS = (
    sequences.degree_lower,
    sequences._entry_degree,
    invariants.h_monomial_degree,
    invariants.dickson_degree,
    correspondence._degree_basis,
)


def prime_branches(source: str) -> list[str]:
    """The lines of source that compare the prime with 2."""
    return [
        line.strip()
        for line in source.splitlines()
        if "p == 2" in line or "p != 2" in line
    ]


def test_prime_branches_are_caught():
    source = "def f(ctx):\n    if ctx.p == 2:\n        pass\n    return p != 2\n"
    assert prime_branches(source) == ["if ctx.p == 2:", "return p != 2"]


def test_degree_formulas_read_the_weights():
    for formula in FORMULAS:
        source = inspect.getsource(formula)
        assert prime_branches(source) == [], formula.__name__
        assert "ctx.weights" in source, formula.__name__
