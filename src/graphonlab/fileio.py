"""File formats and canonical serialization.

Graphons, bigraphons, partitions, set families and partition reports are
JSON; graphs and bigraphs are edge lists (a header of node counts and the
edge count, then one edge per line); metric matrices are CSV. Writers
emit floats at full precision (17 significant digits) with a fixed key
order, so identical objects serialize to identical bytes.

At module level this imports only the standard library and ``errors``: a
loader imports the constructor it builds with, and numpy is imported where
an array is made, so reading a partition report loads neither.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CERTIFIED_ERROR, InvalidInputError

if TYPE_CHECKING:
    import numpy as np

    from .core import Bigraph, Graph, Partition, StepBigraphon, StepGraphon
    from .setsystems import SetFamily


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """JSON text with 17-significant-digit floats and insertion key order.

    A numpy float64 is a ``float``; other numpy scalars and arrays are
    written as their ``tolist()``, the same numbers as Python ints and
    floats."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_canonical(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):
        return dumps_canonical(obj.tolist())
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


def _read_text(path) -> str:
    """The text of the file at ``path``; a missing file, one that cannot be
    read (a directory, no permission) or one that does not decode is an
    input error naming the path."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise InvalidInputError(f"no such file: {path}")
    except OSError as e:
        raise InvalidInputError(f"{path}: cannot read: {e.strerror}")
    except UnicodeDecodeError as e:
        raise InvalidInputError(f"{path}: not a text file ({e.reason} at byte {e.start})")


def load_json(path) -> dict:
    """The JSON object in the file at ``path``; a missing or unreadable
    file, invalid JSON or any other top-level value (an array, a number)
    is an input error."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return doc


def _number_array(path, key: str, value) -> np.ndarray:
    """``value`` as a float array; ragged or non-numeric input is an input
    error, not a numpy exception."""
    import numpy as np

    try:
        arr = np.array(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{path}: {key} must be a rectangular array of numbers")
    return arr.astype(float)


def _built(path, build, *args):
    """``build(*args)``, naming the file in the constructor's input errors."""
    try:
        return build(*args)
    except InvalidInputError as e:
        raise InvalidInputError(f"{path}: {e}")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; a file that cannot be written (a missing
    directory, no permission) is an input error naming the path."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise InvalidInputError(f"{path}: cannot write: {e.strerror}")


# -- graphons ---------------------------------------------------------------

def write_graphon(path, w: StepGraphon) -> None:
    write_text(path, dumps_canonical({"k": w.k, "mu": w.mu, "w": w.w}) + "\n")


def _measure(path, d: dict, keys: str, count: str, measure: str) -> np.ndarray:
    """``d[measure]`` as a float array with ``d[count]`` entries, where the
    count is a JSON integer (not 1.5, "2" or true); each of ``keys`` must
    be present."""
    if not all(key in d for key in keys.split(", ")):
        raise InvalidInputError(f"{path}: expected keys {keys}")
    k = d[count]
    if type(k) is not int:
        raise InvalidInputError(f"{path}: expected keys {keys}, with {count} an integer")
    mu = _number_array(path, measure, d[measure])
    if mu.size != k:
        raise InvalidInputError(f"{path}: {measure} has {mu.size} entries, {count}={k}")
    return mu


def load_graphon(path) -> StepGraphon:
    from .core import StepGraphon

    d = load_json(path)
    mu = _measure(path, d, "k, mu, w", "k", "mu")
    return _built(path, StepGraphon, mu, _number_array(path, "w", d["w"]))


def write_bigraphon(path, w: StepBigraphon) -> None:
    write_text(path, dumps_canonical({"k1": w.k1, "k2": w.k2, "mu1": w.mu1,
                                      "mu2": w.mu2, "w": w.w}) + "\n")


def load_bigraphon(path) -> StepBigraphon:
    from .core import StepBigraphon

    d = load_json(path)
    mu1, mu2 = (_measure(path, d, "k1, k2, mu1, mu2, w", f"k{side}", f"mu{side}")
                for side in "12")
    return _built(path, StepBigraphon, mu1, mu2, _number_array(path, "w", d["w"]))


# -- graphs -----------------------------------------------------------------

def _parse_ints(line: str, count: int, path, lineno: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise InvalidInputError(f"{path}: line {lineno}: expected {count} integers")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InvalidInputError(f"{path}: line {lineno}: expected integers")


def _read_lines(path) -> list[str]:
    return [ln for ln in (raw.strip() for raw in _read_text(path).split("\n")) if ln]


def _edge_list_text(node_counts: tuple, edges) -> str:
    lines = [" ".join(str(n) for n in (*node_counts, len(edges)))]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def _load_edge_list(path, build, node_counts: int):
    lines = _read_lines(path)
    if not lines:
        raise InvalidInputError(f"{path}: empty edge-list file")
    *counts, m = _parse_ints(lines[0], node_counts + 1, path, 1)
    if len(lines) - 1 != m:
        raise InvalidInputError(f"{path}: header says {m} edges, found {len(lines) - 1}")
    edges = [_parse_ints(ln, 2, path, i + 2) for i, ln in enumerate(lines[1:])]
    return _built(path, build, *counts, edges)


def write_graph(path, g: Graph) -> None:
    write_text(path, _edge_list_text((g.n,), g.edges))


def load_graph(path) -> Graph:
    from .core import Graph

    return _load_edge_list(path, Graph, 1)


def write_bigraph(path, b: Bigraph) -> None:
    write_text(path, _edge_list_text((b.n1, b.n2), b.edges))


def load_bigraph(path) -> Bigraph:
    from .core import Bigraph

    return _load_edge_list(path, Bigraph, 2)


# -- partitions and set families --------------------------------------------

def _is_int_lists(value) -> bool:
    """A JSON list of lists of integers (true and false are not integers)."""
    return isinstance(value, list) and all(
        isinstance(s, list) and all(type(e) is int for e in s) for s in value)


def write_partition(path, p: Partition) -> None:
    write_text(path, dumps_canonical({"classes": p.classes()}) + "\n")


def load_partition(path, base) -> Partition:
    from .core import Partition

    d = load_json(path)
    classes = d.get("classes")
    if not _is_int_lists(classes):
        raise InvalidInputError(f"{path}: expected a 'classes' list of integer lists")
    assign = {}
    for cid, cls in enumerate(classes):
        for step in cls:
            if step in assign:
                raise InvalidInputError(f"{path}: step {step} appears twice")
            assign[step] = cid
    if sorted(assign) != list(range(len(base))):
        raise InvalidInputError(f"{path}: classes must cover steps 0..{len(base) - 1}")
    return _built(path, Partition, base, [assign[i] for i in range(len(base))], len(classes))


def write_family(path, h: SetFamily) -> None:
    write_text(path, dumps_canonical({"m": h.m, "weights": h.weights,
                                      "sets": h.members()}) + "\n")


def load_family(path) -> SetFamily:
    from .setsystems import SetFamily

    d = load_json(path)
    try:
        m, sets = d["m"], d["sets"]
    except KeyError:
        raise InvalidInputError(f"{path}: expected keys m, weights, sets")
    # JSON integers parse to exactly int; true and false parse to bool
    if type(m) is not int:
        raise InvalidInputError(f"{path}: expected keys m, weights, sets, with m an integer")
    if not _is_int_lists(sets):
        raise InvalidInputError(f"{path}: sets must be a list of integer lists")
    weights = d.get("weights")
    return _built(path, SetFamily, m, sets,
                  None if weights is None else _number_array(path, "weights", weights))


# -- reports and CSV matrices -----------------------------------------------

def _is_number(value) -> bool:
    # a finite JSON number: bool is an int subclass but not a number here,
    # and json reads NaN, Infinity and -Infinity as floats
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


def load_report(path) -> dict:
    """A partition report as ``graphonlab partition`` writes it, with every
    field that ``graphonlab report`` reads checked. Required: ``kind`` in
    ``CERTIFIED_ERROR`` (else which error its bound certifies is unknown),
    ``classes`` a list, ``exact`` a bool, and ``cut_error``, ``l1_error``
    and ``certified_bound`` finite numbers. Optional: ``edit``, and the
    integers ``atom_count`` and ``sauer_bound``, both or neither. A missing
    or mistyped field is an input error."""
    doc = load_json(path)
    edit = doc.get("edit")
    atoms = [doc[key] for key in ("atom_count", "sauer_bound") if key in doc]
    checks = {f"kind must be one of {', '.join(CERTIFIED_ERROR)}":
                  isinstance(doc.get("kind"), str) and doc["kind"] in CERTIFIED_ERROR,
              "classes must be a list": isinstance(doc.get("classes"), list),
              "exact must be true or false": isinstance(doc.get("exact"), bool),
              "edit must be an object with finite numeric changed_cells and cell_bound":
                  "edit" not in doc or isinstance(edit, dict) and all(
                      _is_number(edit.get(key)) for key in ("changed_cells", "cell_bound")),
              "atom_count and sauer_bound must be both integers or both absent":
                  len(atoms) != 1 and all(type(x) is int for x in atoms),
              **{f"{key} must be a number and finite": _is_number(doc.get(key))
                 for key in ("cut_error", "l1_error", "certified_bound")}}
    for message, ok in checks.items():
        if not ok:
            raise InvalidInputError(f"{path}: {message}")
    return doc


def load_csv(path) -> np.ndarray:
    """The nonempty table of numbers in a comma-separated file, as a 2-d
    float array. A first row reading 0, 1, ..., k-1 above k rows of k
    numbers is a header (as ``MetricView.to_csv`` writes) and is dropped."""
    import numpy as np

    rows = [ln.split(",") for ln in _read_lines(path)]
    try:
        table = np.array(rows).astype(float)
    except ValueError:
        table = None
    if not rows or table is None:
        raise InvalidInputError(f"{path}: expected a rectangular table of comma-separated numbers")
    k = table.shape[1]
    return table[1:] if len(table) == k + 1 and np.array_equal(table[0], np.arange(k)) else table
