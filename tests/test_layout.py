"""Source layout rules, checked on the syntax tree of ``src/graphonlab``.

Nine rules keep the package's design honest:

- a private name (``_name``) is imported from another graphonlab module
  only if it is one of ``SHARED_PRIVATE``: ``_frozen_array`` and
  ``_measure_vector`` build every value type, and ``_derived`` is the one
  slot that keeps what is derived from a graphon. They stay private
  because the benchmark's tracer wraps every public module-level
  function, and a span on each value construction or slot lookup would
  charge that work to ``core``;
- ``object.__setattr__`` is called only inside ``__init__`` or
  ``__post_init__``, so no value is written after construction and
  nothing is memoized on a value;
- ``cut_norm_upper``, a proven upper bound on the cut norm, is reached
  only in ``regularity._measured_report``, the one function that decides
  how a report measures its cut error: exactly up to 24 steps, by the
  bound above 24. So no check reads the bound where the exact value
  exists;
- ``einsum`` is called only in ``densities.partial_density``: a graph
  density is one planned einsum, and a bigraph density is a broadcast
  product, so each pattern kind has one contraction;
- the density size guard ``_guard`` is called once in each of
  ``densities.partial_density`` and ``densities.partial_bigraph_density``,
  the one entry point per pattern kind, so every density of a kind is
  held to one rule on the nodes it enumerates;
- an eigen-solve (``eigvalsh``, ``eigh``, ``eig``, ``eigvals``) is called
  only in ``core.cut_norm_upper``, the one spectral bound, whose docstring
  proves its padding and when the solve is skipped;
- no module reads ``__debug__`` or has an ``assert`` statement, so the
  package checks the same inputs, and computes the same values, with or
  without python -O;
- no module raises the bare ``GraphonError``: the CLI maps each subclass
  to its documented exit code (1 certificate, 2 input, 3 hypothesis, 4
  size guard), and the base class, like any other exception, is an
  internal error (5);
- the package ``__init__``, ``errors``, ``cli`` and ``fileio`` import only
  the standard library and ``.errors`` when they load; everything else is
  imported inside the function that calls it, so ``import graphonlab``
  loads no layer and each command loads only what it runs (``report``
  runs without numpy).
"""

import ast
import sys
from pathlib import Path

import pytest

import graphonlab

SHARED_PRIVATE = {"_frozen_array", "_measure_vector", "_derived"}

SOURCES = sorted(Path(graphonlab.__file__).parent.glob("*.py"))

#: (module, enclosing function) of each allowed use of the cut norm's upper bound
UPPER_BOUND_ROUTES = {("regularity.py", "_measured_report")}

#: (module, enclosing function) of the one einsum call
EINSUM_CALLERS = {("densities.py", "partial_density")}

#: (module, enclosing function) of each density size-guard call, one per pattern kind
GUARD_CALLS = [("densities.py", "partial_bigraph_density"), ("densities.py", "partial_density")]

EIGEN_SOLVES = {"eigvalsh", "eigh", "eig", "eigvals"}

#: (module, enclosing function) of the one eigen-solve
EIGEN_CALLERS = {("core.py", "cut_norm_upper")}

#: modules that import only the standard library and ``.errors`` when they load
LIGHT_MODULES = {"__init__.py", "errors.py", "cli.py", "fileio.py"}


def private_imports(source: str) -> list[str]:
    """Private names imported from graphonlab modules (relative imports
    included)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "graphonlab"):
            names += [a.name for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return names


def nodes_in_functions(source: str):
    """Each node of the syntax tree, in depth-first order, with the name of
    the innermost function around it (None at module level)."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(ast.parse(source), None)


def late_setattrs(source: str) -> list[int]:
    """Line numbers of ``object.__setattr__`` calls outside ``__init__``
    and ``__post_init__``."""
    return [node.lineno for node, function in nodes_in_functions(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
            and function not in ("__init__", "__post_init__")]


def _called_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def upper_bound_routes(source: str) -> list[str | None]:
    """The enclosing function of each use of ``cut_norm_upper``, called or
    passed on (its definition and imports are not uses)."""
    return [function for node, function in nodes_in_functions(source)
            if _called_name(node) == "cut_norm_upper"]


def einsum_calls(source: str) -> list[str | None]:
    """The enclosing function of each ``einsum`` call."""
    return [function for node, function in nodes_in_functions(source)
            if isinstance(node, ast.Call) and _called_name(node.func) == "einsum"]


def guard_calls(source: str) -> list[str | None]:
    """The enclosing function of each ``_guard`` call."""
    return [function for node, function in nodes_in_functions(source)
            if isinstance(node, ast.Call) and _called_name(node.func) == "_guard"]


def eigen_calls(source: str) -> list[str | None]:
    """The enclosing function of each eigen-solve call."""
    return [function for node, function in nodes_in_functions(source)
            if isinstance(node, ast.Call) and _called_name(node.func) in EIGEN_SOLVES]


def optimized_away(source: str) -> list[int]:
    """Line numbers of ``assert`` statements and reads of ``__debug__``:
    code that python -O removes or turns off."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "__debug__")


def bare_error_raises(source: str) -> list[int]:
    """Line numbers of ``raise GraphonError`` statements, called or not."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and _called_name(getattr(node.exc, "func", node.exc)) == "GraphonError")


def load_time_imports(source: str) -> list[str]:
    """Modules imported when the module loads, other than the standard
    library and ``.errors``: imports outside functions and outside
    ``if TYPE_CHECKING:`` blocks. A relative import reads ``.name``, an
    absolute one gives its top-level package."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        children = ast.iter_child_nodes(node)
        if isinstance(node, ast.If) and _called_name(node.test) == "TYPE_CHECKING":
            children = node.orelse
        elif isinstance(node, ast.Import):
            found.extend(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.append(node.module.split(".")[0])
            else:
                found.extend("." + name for name in
                             ([node.module] if node.module else [a.name for a in node.names]))
        for child in children:
            visit(child)

    visit(ast.parse(source))
    return [m for m in found if m != ".errors" and m not in sys.stdlib_module_names]


def test_the_sources_are_found():
    names = {p.name for p in SOURCES}
    assert {"core.py", "metrics.py", "regularity.py"} | LIGHT_MODULES <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_names_cross_modules_only_from_the_shared_set(path):
    assert set(private_imports(path.read_text())) <= SHARED_PRIVATE


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_values_are_written_only_while_constructed(path):
    assert late_setattrs(path.read_text()) == []


# named for the heuristic lower bound that filled this role before the
# proven upper bound replaced it
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_heuristic_cut_norm_is_reached_only_by_reports(path):
    routes = {(path.name, function) for function in upper_bound_routes(path.read_text())}
    assert routes <= UPPER_BOUND_ROUTES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_einsum_is_called_only_for_graph_densities(path):
    assert {(path.name, function) for function in einsum_calls(path.read_text())} <= EINSUM_CALLERS


def test_each_pattern_kind_guards_its_density_once():
    calls = [(path.name, function) for path in SOURCES
             for function in guard_calls(path.read_text())]
    assert sorted(calls) == GUARD_CALLS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_eigen_solves_are_called_only_for_the_spectral_bound(path):
    assert {(path.name, function) for function in eigen_calls(path.read_text())} <= EIGEN_CALLERS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_nothing_depends_on_python_O(path):
    assert optimized_away(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_maps_to_a_documented_exit_code(path):
    assert bare_error_raises(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name in LIGHT_MODULES],
                         ids=lambda p: p.name)
def test_the_entry_modules_load_only_the_stdlib_and_errors(path):
    assert load_time_imports(path.read_text()) == []


def test_the_checks_see_violations():
    assert private_imports(
        "from .core import _subset_sums, cut_norm\n"
        "from graphonlab.metrics import _row_l1_matrix\n"
        "from __future__ import annotations\n"
        "from numpy import _private\n") == ["_subset_sums", "_row_l1_matrix"]
    assert late_setattrs(
        "class A:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "def memo(p):\n"
        "    object.__setattr__(p, '_memo', 1)\n"
        "    def __init__(q):\n"
        "        object.__setattr__(q, 'y', 2)\n") == [5]
    assert upper_bound_routes(
        "from .core import cut_norm, cut_norm_upper\n"
        "def cut_norm_upper(r):\n"
        "    return 0.0\n"
        "def _measured_report(w, p):\n"
        "    return cut_norm_upper(r)\n"
        "def check(r):\n"
        "    return core.cut_norm_upper(r) <= cut_norm(r) + _derived(w, k, cut_norm_upper)\n"
        ) == ["_measured_report", "check", "check"]
    assert einsum_calls(
        "def partial_density(f, w):\n"
        "    return np.einsum('ab,a,b->', w.w, w.mu, w.mu)\n"
        "def _integrate(spec, factors):\n"
        "    return numpy.einsum(spec, *factors, optimize=True)\n"
        "total = einsum('a->', mu)\n") == ["partial_density", "_integrate", None]
    assert guard_calls(
        "def _guard(n, k):\n"
        "    return n\n"
        "def partial_density(f, w):\n"
        "    _guard(len(free), w.k)\n"
        "def bigraph_kernel(f, w):\n"
        "    densities._guard(f.n1 + f.n2, w.k1)\n"
        "    _guard(len(axis), len(mu_a))\n") == [
        "partial_density", "bigraph_kernel", "bigraph_kernel"]
    assert eigen_calls(
        "def cut_norm_upper(r):\n"
        "    return np.linalg.eigvalsh(m)\n"
        "def spread(w):\n"
        "    vals, vecs = numpy.linalg.eigh(w.w)\n"
        "    return eig(w.w), linalg.eigvals(w.w), np.linalg.norm(w.w)\n"
        ) == ["cut_norm_upper", "spread", "spread", "spread"]
    assert optimized_away(
        "'''callers can assert it; __debug__ in a docstring is no read'''\n"
        "def check(view):\n"
        "    assert view.k > 0, 'empty'\n"
        "    if __debug__ and view.k <= 64:\n"
        "        view.assert_metric()\n"
        "debug = __debug__\n") == [3, 4, 6]
    assert bare_error_raises(
        "class GraphonError(Exception):\n"
        "    'raise GraphonError in a docstring is no raise'\n"
        "def check(val):\n"
        "    if val:\n"
        "        raise GraphonError(f'internal error: {val}')\n"
        "    raise CertificationError('nonzero') from GraphonError\n"
        "try:\n"
        "    pass\n"
        "except GraphonError:\n"
        "    raise\n"
        "raise errors.GraphonError\n") == [5, 11]
    assert load_time_imports(
        "from __future__ import annotations\n"
        "import argparse, os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "from . import fileio, errors\n"
        "from .errors import InvalidInputError\n"
        "from graphonlab.core import Graph\n"
        "if TYPE_CHECKING:\n"
        "    from .core import StepGraphon\n"
        "else:\n"
        "    from .setsystems import SetFamily\n"
        "def cmd_zoo(args):\n"
        "    import numpy\n"
        "    from . import zoo\n"
        "class Report:\n"
        "    from .metrics import MetricView\n"
        "    f = lambda: __import__('numpy')\n"
        ) == ["numpy", ".fileio", "graphonlab", ".setsystems", ".metrics"]
