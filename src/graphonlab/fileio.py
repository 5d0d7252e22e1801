"""File formats and canonical serialization.

Graphons and bigraphons are JSON; graphs and bigraphs are whitespace text
("n m" header then one edge per line); partitions and set families are
JSON. Writers emit floats at full precision (17 significant digits) with
a fixed key order, so identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Bigraph, Graph, Partition, StepBigraphon, StepGraphon
from .errors import InvalidInputError
from .setsystems import SetFamily


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """JSON text with 17-significant-digit floats and insertion key order."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_canonical(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


def load_json(path) -> dict:
    """The JSON object in the file at ``path``; a missing file, invalid
    JSON or any other top-level value (an array, a number) is an input
    error."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return doc


def _number_array(path, key: str, value) -> np.ndarray:
    """``value`` as a float array; ragged or non-numeric input is an input
    error, not a numpy exception."""
    try:
        arr = np.array(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{path}: {key} must be a rectangular array of numbers")
    return arr.astype(float)


def write_text(path, text: str) -> None:
    Path(path).write_text(text)


# -- graphons ---------------------------------------------------------------

def graphon_to_json(w: StepGraphon) -> str:
    return dumps_canonical({"k": w.k, "mu": w.mu, "w": w.w}) + "\n"


def write_graphon(path, w: StepGraphon) -> None:
    write_text(path, graphon_to_json(w))


def load_graphon(path) -> StepGraphon:
    d = load_json(path)
    try:
        k, mu, w = int(d["k"]), d["mu"], d["w"]
    except (KeyError, TypeError, ValueError):
        raise InvalidInputError(f"{path}: expected keys k, mu, w")
    mu = _number_array(path, "mu", mu)
    if mu.size != k:
        raise InvalidInputError(f"{path}: mu has {mu.size} entries, k={k}")
    return StepGraphon(mu, _number_array(path, "w", w))


def bigraphon_to_json(w: StepBigraphon) -> str:
    return dumps_canonical({"k1": w.k1, "k2": w.k2, "mu1": w.mu1,
                            "mu2": w.mu2, "w": w.w}) + "\n"


def write_bigraphon(path, w: StepBigraphon) -> None:
    write_text(path, bigraphon_to_json(w))


def load_bigraphon(path) -> StepBigraphon:
    d = load_json(path)
    try:
        mu1, mu2, w = d["mu1"], d["mu2"], d["w"]
    except (KeyError, TypeError):
        raise InvalidInputError(f"{path}: expected keys k1, k2, mu1, mu2, w")
    return StepBigraphon(_number_array(path, "mu1", mu1), _number_array(path, "mu2", mu2),
                         _number_array(path, "w", w))


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
    try:
        with open(path) as fh:
            return [ln for ln in (raw.strip() for raw in fh) if ln]
    except FileNotFoundError:
        raise InvalidInputError(f"no such file: {path}")


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def write_graph(path, g: Graph) -> None:
    write_text(path, graph_to_text(g))


def load_graph(path) -> Graph:
    lines = _read_lines(path)
    if not lines:
        raise InvalidInputError(f"{path}: empty graph file")
    n, m = _parse_ints(lines[0], 2, path, 1)
    if len(lines) - 1 != m:
        raise InvalidInputError(f"{path}: header says {m} edges, found {len(lines) - 1}")
    edges = [_parse_ints(ln, 2, path, i + 2) for i, ln in enumerate(lines[1:])]
    try:
        return Graph(n, edges)
    except InvalidInputError as e:
        raise InvalidInputError(f"{path}: {e}")


def bigraph_to_text(b: Bigraph) -> str:
    lines = [f"{b.n1} {b.n2} {len(b.edges)}"]
    lines += [f"{u} {v}" for u, v in sorted(b.edges)]
    return "\n".join(lines) + "\n"


def write_bigraph(path, b: Bigraph) -> None:
    write_text(path, bigraph_to_text(b))


def load_bigraph(path) -> Bigraph:
    lines = _read_lines(path)
    if not lines:
        raise InvalidInputError(f"{path}: empty bigraph file")
    n1, n2, m = _parse_ints(lines[0], 3, path, 1)
    if len(lines) - 1 != m:
        raise InvalidInputError(f"{path}: header says {m} edges, found {len(lines) - 1}")
    edges = [_parse_ints(ln, 2, path, i + 2) for i, ln in enumerate(lines[1:])]
    try:
        return Bigraph(n1, n2, edges)
    except InvalidInputError as e:
        raise InvalidInputError(f"{path}: {e}")


# -- partitions and set families --------------------------------------------

def partition_to_json(p: Partition) -> str:
    return dumps_canonical({"classes": p.classes()}) + "\n"


def write_partition(path, p: Partition) -> None:
    write_text(path, partition_to_json(p))


def load_partition(path, base) -> Partition:
    d = load_json(path)
    classes = d.get("classes")
    if not isinstance(classes, list):
        raise InvalidInputError(f"{path}: expected a 'classes' list")
    assign = {}
    for cid, cls in enumerate(classes):
        for step in cls:
            if step in assign:
                raise InvalidInputError(f"{path}: step {step} appears twice")
            assign[int(step)] = cid
    if sorted(assign) != list(range(len(base))):
        raise InvalidInputError(f"{path}: classes must cover steps 0..{len(base) - 1}")
    return Partition(base, [assign[i] for i in range(len(base))], len(classes))


def family_to_json(h: SetFamily) -> str:
    return dumps_canonical({
        "m": h.m,
        "weights": h.weights if h.weights is not None else None,
        "sets": h.members(),
    }) + "\n"


def write_family(path, h: SetFamily) -> None:
    write_text(path, family_to_json(h))


def load_family(path) -> SetFamily:
    d = load_json(path)
    try:
        m, sets = int(d["m"]), d["sets"]
    except (KeyError, TypeError):
        raise InvalidInputError(f"{path}: expected keys m, weights, sets")
    weights = d.get("weights")
    return SetFamily(m, sets, None if weights is None else _number_array(path, "weights", weights))
