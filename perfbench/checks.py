"""Output checks for the benchmark's jobs.

Each check raises ``CheckError`` when an output is wrong. They run outside
the timed interval, and where they can they recompute the quantity by an
independent route (trace formulas, brute-force sums, spherical angles)
instead of trusting another graphonlab call.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

#: slack for certified bounds, as the library's own certificates use
SLACK = 1e-9


class CheckError(Exception):
    """An output failed its check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def partition_report(rep, measured: str) -> None:
    """Certified bound holds for the measured error, and cut <= L1."""
    require(rep.certified(measured), f"{measured} error above the certified bound")
    require(rep.cut_error <= rep.l1_error + 1e-12, "cut error above L1 error")


def certify(out: dict) -> None:
    weak, ultra = out["weak"], out["ultra"]
    partition_report(weak, "cut")
    partition_report(ultra, "l1")
    require(weak.exact and ultra.exact, "exact cut norm expected for k <= 24")
    # a cut rectangle splits into per-block rectangles, and each block's best
    # rectangle is bounded by the block's absolute mass
    require(weak.cut_error <= out["szemeredi"] + 1e-12, "cut error above Szemeredi error")
    require(out["szemeredi"] <= weak.l1_error + 1e-12, "Szemeredi error above L1 error")
    centers, cost = out["net"]
    require(len(centers) == weak.partition.c, "one net center per class expected")
    require(0.0 <= cost <= 4.0 * weak.cut_error + SLACK, "net cost above 4x cut error")


def shape_sums(induced: dict) -> None:
    """For each n1 x n2 shape the induced densities of all labelled
    bigraphs sum to 1."""
    for shape, values in induced.items():
        require(abs(sum(values) - 1.0) <= 1e-9, f"induced densities of shape {shape} "
                f"sum to {sum(values)!r}, not 1")


def hom_from_induced(t_hom: float, t_ind_supersets) -> None:
    """t(F) equals the sum of t_ind(F') over supergraphs F' of F on V(F)."""
    total = float(sum(t_ind_supersets))
    require(abs(t_hom - total) <= 1e-9, f"t(F) = {t_hom!r} but the induced sum is {total!r}")


def rooted_average(partials, mu, t_hom: float) -> None:
    """Integrating a rooted density over its root gives the full density."""
    total = float(np.dot(partials, mu))
    require(abs(total - t_hom) <= 1e-12, f"rooted densities average to {total!r}, not {t_hom!r}")


def cycle_densities(w, t_k3: float, t_c4: float) -> None:
    """t(K3) = tr(M^3) and t(C4) = tr(M^4) for M = D^1/2 W D^1/2."""
    s = np.sqrt(w.mu)
    m = s[:, None] * w.w * s[None, :]
    m2 = m @ m
    for name, got, want in (("K3", t_k3, float(np.sum(m2 * m))),
                            ("C4", t_c4, float(np.sum(m2 * m2)))):
        require(abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                f"t({name}) = {got!r}, trace formula gives {want!r}")


def induced_bigraph_density(f, w) -> float:
    """Brute-force t^b_ind(f, W) on a graphon: every left assignment, with
    the right nodes summed out one at a time."""
    assign = np.array(list(itertools.product(range(w.k), repeat=f.n1)), dtype=int)
    total = np.ones(len(assign))
    for j in range(f.n2):
        prod = np.ones((len(assign), w.k))
        for i in range(f.n1):
            prod *= (w.w if (i, j) in f.edges else 1.0 - w.w)[assign[:, i]]
        total *= prod @ w.mu
    return float(total @ np.prod(w.mu[assign], axis=1))


def thinness(w, de: int, witness, half: bool) -> None:
    """The witness has exactly zero induced density; half graphons have
    DE-dimension 1."""
    require(witness is not None, "no exclusion witness found")
    require(witness.n1 == de + 1 and witness.n2 == 1 << (de + 1), "witness shape does not "
            "match the DE-dimension")
    dens = induced_bigraph_density(witness, w)
    require(dens == 0.0, f"witness has induced density {dens!r}, not 0")
    if half:
        require(de == 1, f"half graphon has DE-dimension {de}, not 1")


def metric_contraction(r_w, r_ww) -> None:
    """r_{WoW} <= r_W entrywise."""
    worst = float(np.max(r_ww.dist - r_w.dist))
    require(worst <= 1e-12, f"similarity exceeds neighborhood distance by {worst:.3g}")


def sphere_distance(r_w, pts) -> None:
    """On the hemisphere graphon r_W is the normalized angle up to 3/sqrt(n)."""
    n = len(pts)
    angle = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)) / np.pi
    worst = float(np.max(np.abs(r_w.dist - angle)))
    require(worst <= 3.0 / np.sqrt(n), f"|r_W - angle/pi| = {worst:.3g} > 3/sqrt({n})")


def average_net(m, centers, cost: float, eps: float) -> None:
    require(cost <= eps, f"net cost {cost} above eps {eps}")
    got = float(np.min(m.dist[:, centers], axis=1) @ m.mu)
    require(abs(got - cost) <= 1e-12, f"net cost {cost!r} but the centers give {got!r}")


def voronoi(m, centers, part) -> None:
    assign = np.array(part.assign)
    nearest = np.min(m.dist[:, centers], axis=1)
    chosen = m.dist[np.arange(m.k), np.array(centers)[assign]]
    require(np.array_equal(chosen, nearest), "a point is not in its nearest center's cell")
    require(all(assign[c] == i for i, c in enumerate(centers)), "a center left its own cell")


def purify(w, pure, mapping) -> None:
    require(len(mapping) == w.k and max(mapping) + 1 == pure.k, "purify mapping is not onto")
    mass = np.zeros(pure.k)
    np.add.at(mass, np.array(mapping), w.mu)
    require(np.allclose(mass, pure.mu, rtol=0, atol=1e-12), "purify did not preserve measure")


def packing_table(table) -> None:
    counts = [n for _, n in table]
    require(all(a <= b for a, b in zip(counts, counts[1:])),
            "packing numbers decrease as eps shrinks")


# -- command line ------------------------------------------------------------

def cli_exit_codes(steps) -> None:
    for argv, rc, _, err in steps:
        require(rc == 0, f"`{' '.join(argv)}` exited {rc}: {err.strip()[-200:]}")


def cli_report(text: str) -> None:
    require("certified: PASS" in text, "report does not print `certified: PASS`")
    require("FAIL" not in text, "report prints FAIL")


def cli_thinness(text: str) -> None:
    doc = json.loads(text)
    require(doc.get("witness_found") is True, "thinness found no witness")
    require(doc.get("de") == 1, f"half graphon has DE-dimension {doc.get('de')}, not 1")
    require(doc.get("t_b_ind") == 0.0, "witness density is not exactly 0")


def cli_density(text: str, expected: dict) -> None:
    doc = json.loads(text)
    for key, want in expected.items():
        got = doc.get(key)
        require(got is not None and abs(got - want) <= 1e-12,
                f"density `{key}` = {got!r}, expected {want!r}")
