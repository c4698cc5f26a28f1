"""Seeded benchmark scenes, written as the files ``csgc compress`` reads.

This module imports nothing from csgcompress on purpose: it carries its own
primitive geometry (signed distances and analytic surface samplers for
spheres, axis-aligned boxes and z-axis cylinders) and its own evaluator for
CSG trees in the program's JSON tree format.  A change to the program can
therefore change neither the inputs nor the expected answers.

Every scene records what an independent checker needs: the target solid as
a JSON tree, the set of non-empty cells (fundamental products) known from
the geometry, and for exactly solved scenes the optimal cover size.

The seed moves scenes by a rigid translation and jitters sphere centres and
radii within margins that keep the overlap pattern, so every seed gives the
same combinatorial instance and about the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Cloud density in points per unit surface area: about 2000 points per
# radius-1.2 sphere, enough for the half-space oracle to classify every
# cell of the chain and grid scenes cleanly.
CLOUD_DENSITY = 110.0

_ON_SURFACE_TOL = 1e-9


@dataclass(frozen=True)
class Prim:
    """Axis-aligned primitive: sphere (r,), box (hx, hy, hz), cylinder (r, h)."""

    pid: str
    kind: str
    center: tuple[float, float, float]
    size: tuple[float, ...]

    def to_json(self) -> dict:
        if self.kind == "sphere":
            params = {"radius": self.size[0]}
        elif self.kind == "box":
            params = {"half_extents": list(self.size)}
        else:
            params = {"radius": self.size[0], "half_height": self.size[1]}
        return {
            "id": self.pid,
            "kind": self.kind,
            "translation": list(self.center),
            "rotation": [1.0, 0.0, 0.0, 0.0],
            "params": params,
        }

    def sdf(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance, negative strictly inside."""
        local = pts - np.asarray(self.center)
        if self.kind == "sphere":
            return np.linalg.norm(local, axis=1) - self.size[0]
        if self.kind == "box":
            q = np.abs(local) - np.asarray(self.size)
        else:
            q = np.stack(
                [
                    np.linalg.norm(local[:, :2], axis=1) - self.size[0],
                    np.abs(local[:, 2]) - self.size[1],
                ],
                axis=1,
            )
        return np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(q.max(axis=1), 0.0)

    def area(self) -> float:
        if self.kind == "sphere":
            return 4.0 * math.pi * self.size[0] ** 2
        if self.kind == "box":
            a, b, c = self.size
            return 8.0 * (a * b + b * c + c * a)
        r, h = self.size
        return 4.0 * math.pi * r * h + 2.0 * math.pi * r * r

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        half = np.asarray(self.size if self.kind == "box" else
                          (self.size[0],) * 2 + (self.size[-1],))
        c = np.asarray(self.center)
        return c - half, c + half

    def sample_surface(self, n: int, rng: np.random.Generator):
        """``n`` uniform surface points and their outward unit normals."""
        if self.kind == "sphere":
            nrm = rng.normal(size=(n, 3))
            nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
            local = self.size[0] * nrm
        elif self.kind == "box":
            half = np.asarray(self.size)
            face_area = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
            axis = rng.choice(3, size=n, p=face_area / face_area.sum())
            side = rng.choice([-1.0, 1.0], size=n)
            local = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
            nrm = np.zeros((n, 3))
            rows = np.arange(n)
            local[rows, axis] = side * half[axis]
            nrm[rows, axis] = side
        else:
            r, h = self.size
            side_area, cap_area = 4.0 * math.pi * r * h, 2.0 * math.pi * r * r
            on_side = rng.random(n) < side_area / (side_area + cap_area)
            theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
            rad = np.where(on_side, r, r * np.sqrt(rng.random(n)))
            cap = np.where(rng.random(n) < 0.5, -h, h)
            z = np.where(on_side, rng.uniform(-h, h, size=n), cap)
            local = np.stack([rad * np.cos(theta), rad * np.sin(theta), z], axis=1)
            nrm = np.where(
                on_side[:, None],
                np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1),
                np.stack([np.zeros(n), np.zeros(n), np.sign(cap)], axis=1),
            )
        return local + np.asarray(self.center), nrm


# ---------------------------------------------------------------------------
# CSG trees in the program's JSON format, built and evaluated here
# ---------------------------------------------------------------------------

def prim(pid: str) -> dict:
    return {"op": "prim", "prim": pid}


def union(*children) -> dict:
    return {"op": "union", "children": list(children)}


def inter(*children) -> dict:
    return {"op": "inter", "children": list(children)}


def comp(child) -> dict:
    return {"op": "comp", "children": [child]}


def evaluate(tree: dict, inside: dict):
    """Membership of ``tree`` given each primitive's membership (bools or arrays)."""
    op = tree["op"]
    if op == "prim":
        return inside[tree["prim"]]
    values = [evaluate(c, inside) for c in tree["children"]]
    if op == "comp":
        return np.logical_not(values[0])
    if op == "union":
        return np.logical_or.reduce(values)
    if op == "inter":
        return np.logical_and.reduce(values)
    raise ValueError(f"unknown tree op {op!r}")


def cell_inside(tree: dict, cell: frozenset, ids) -> bool:
    """Whether the cell with positive set ``cell`` lies inside ``tree``."""
    return bool(evaluate(tree, {pid: pid in cell for pid in ids}))


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scene:
    """One compression input plus the facts the checker compares against.

    ``cells`` holds every non-empty fundamental product; ``optimum`` is the
    (subsets, literals) of the smallest exact cover, or None when not known
    in closed form.
    """

    name: str
    prims: tuple[Prim, ...]
    target: dict
    oracle: str  # "cloud" or "tree"
    solver: str  # cover solver of the run
    cells: frozenset
    optimum: tuple[int, int] | None

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.pid for p in self.prims)

    def inside_cells(self) -> frozenset:
        return frozenset(c for c in self.cells if cell_inside(self.target, c, self.ids))

    def edges(self) -> frozenset:
        """Overlapping pairs: the primitives that share some cell."""
        return frozenset(
            (a, b) for c in self.cells for a in c for b in c if a < b
        )

    def write(self, directory: Path, rng: np.random.Generator) -> dict[str, Path]:
        """Write the primitives JSON and the cloud or tree file; returns the paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {"primitives": directory / f"{self.name}.primitives.json"}
        paths["primitives"].write_text(
            json.dumps([p.to_json() for p in self.prims], indent=2) + "\n"
        )
        if self.oracle == "cloud":
            pts, nrm = oriented_cloud(self.prims, self.target, rng)
            paths["cloud"] = directory / f"{self.name}.xyz"
            np.savetxt(paths["cloud"], np.hstack([pts, nrm]), fmt="%.17g",
                       header="x y z nx ny nz")
        else:
            paths["tree"] = directory / f"{self.name}.tree.json"
            paths["tree"].write_text(json.dumps(self.target, indent=2) + "\n")
        return paths


def oriented_cloud(prims, target: dict, rng: np.random.Generator):
    """Surface points of ``target`` with outward unit normals.

    A point on primitive k's surface lies on the target's surface when the
    target's membership there flips with k's; the normal points out of the
    target, so it is k's own normal when the target lies inside k and the
    reverse otherwise.  Points on two primitive surfaces at once are dropped.
    """
    pts_out, nrm_out = [], []
    for k, p in enumerate(prims):
        pts, nrm = p.sample_surface(math.ceil(CLOUD_DENSITY * p.area()), rng)
        others = {q.pid: q.sdf(pts) for j, q in enumerate(prims) if j != k}
        clear = np.all([np.abs(d) > _ON_SURFACE_TOL for d in others.values()], axis=0) \
            if others else np.ones(len(pts), bool)
        inside = {pid: d < 0 for pid, d in others.items()}
        with_k = evaluate(target, {**inside, p.pid: np.ones(len(pts), bool)})
        without_k = evaluate(target, {**inside, p.pid: np.zeros(len(pts), bool)})
        keep = clear & (with_k != without_k)
        pts_out.append(pts[keep])
        nrm_out.append(np.where(with_k[keep, None], nrm[keep], -nrm[keep]))
    return np.vstack(pts_out), np.vstack(nrm_out)


def sphere_cells(prims) -> frozenset:
    """Non-empty cells of an arrangement of spheres with triangle-free overlaps.

    Two spheres overlap iff their centres are closer than the radii sum.
    Without three mutually overlapping spheres no cell has more than two
    positives: a pair's lens touches no third sphere, since that sphere
    would then overlap both.  A single cell is non-empty when the sphere's
    centre lies outside every other sphere.
    """
    def gap(a: Prim, b: Prim) -> float:
        return float(np.linalg.norm(np.subtract(a.center, b.center)))

    for a, b in itertools.permutations(prims, 2):
        if gap(a, b) < b.size[0]:
            raise ValueError(f"sphere {a.pid} has its centre inside {b.pid}")
    cells = {frozenset({p.pid}) for p in prims}
    cells |= {
        frozenset({a.pid, b.pid})
        for a, b in itertools.combinations(prims, 2)
        if gap(a, b) < a.size[0] + b.size[0]
    }
    for trio in itertools.combinations(prims, 3):
        if all(frozenset({a.pid, b.pid}) in cells
               for a, b in itertools.combinations(trio, 2)):
            raise ValueError(f"spheres {[p.pid for p in trio]} overlap pairwise")
    return frozenset(cells)


# Centre jitter per coordinate and radius jitter, both uniform; with
# spacing 2 and radius 1.2 they keep neighbours overlapping (distance at
# most 2.18 < 2.32) and next-but-one spheres apart (distance at least 2.63
# > 2.48 on a grid diagonal), so the overlap graph never changes.
_CENTRE_JITTER = 0.05
_RADIUS = 1.2
_RADIUS_JITTER = 0.04


def _offset(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-10.0, 10.0, size=3)


def _jittered_sphere(pid, centre, rng) -> Prim:
    c = np.asarray(centre, float) + rng.uniform(-_CENTRE_JITTER, _CENTRE_JITTER, 3)
    r = _RADIUS + rng.uniform(-_RADIUS_JITTER, _RADIUS_JITTER)
    return Prim(pid, "sphere", tuple(float(v) for v in c), (float(r),))


def chain_scene(rng, n: int, oracle: str, solver: str) -> Scene:
    """``n`` spheres in a row, each overlapping its neighbours; target = union.

    Every exact cover picks one subset per sphere, so the optimum is n
    subsets; each of the n - 1 overlap cells costs one extra literal in
    whichever subset covers it, so it is 2n - 1 literals.
    """
    base = _offset(rng)
    prims = tuple(
        _jittered_sphere(f"P{i:02d}", base + (2.0 * i, 0.0, 0.0), rng)
        for i in range(n)
    )
    return Scene(
        name=f"chain{n}",
        prims=prims,
        target=union(*(prim(p.pid) for p in prims)),
        oracle=oracle,
        solver=solver,
        cells=sphere_cells(prims),
        optimum=(n, 2 * n - 1),
    )


def grid_scene(rng, side: int) -> Scene:
    """``side`` x ``side`` planar sphere grid; target = G00 | (far corner - its neighbour).

    Only a few cells are inside, so the cover is trivial: the bare corner
    sphere plus the far corner with its neighbour negated, 2 subsets and 3
    literals (the far corner alone would cover its shared cell with the
    negated neighbour, which is outside).
    """
    base = _offset(rng)
    prims = tuple(
        _jittered_sphere(f"G{i}{j}", base + (2.0 * i, 2.0 * j, 0.0), rng)
        for i in range(side)
        for j in range(side)
    )
    far, cut = f"G{side - 1}{side - 1}", f"G{side - 1}{side - 2}"
    return Scene(
        name=f"grid{side}x{side}",
        prims=prims,
        target=union(prim("G00"), inter(prim(far), comp(prim(cut)))),
        oracle="cloud",
        solver="dlx",
        cells=sphere_cells(prims),
        optimum=(2, 3),
    )


# The six-primitive reference scene: graph edges A-B, B-C, B-D, C-D, B-E,
# D-E, E-F; every clique of that graph is a non-empty cell (checked by
# brute force with 4M samples grouped by sign vector).
_REFERENCE_PRIMS = (
    ("A", "cylinder", (-2.6, 0.0, 0.0), (1.0, 1.0)),
    ("B", "sphere", (0.0, 0.0, 0.0), (2.0,)),
    ("C", "sphere", (1.6, 1.4, 0.0), (1.2,)),
    ("D", "sphere", (1.6, -0.4, 0.0), (1.2,)),
    ("E", "sphere", (2.0, -2.0, 0.0), (1.4,)),
    ("F", "box", (4.0, -2.4, 0.0), (1.0, 1.0, 1.0)),
)
_REFERENCE_CELLS = frozenset(
    frozenset(s) for s in (
        "A", "B", "C", "D", "E", "F", "AB", "BC", "BD", "BE", "CD", "DE", "EF",
        "BCD", "BDE",
    )
)


def reference_scene(rng) -> Scene:
    """The reference scene moved by a seeded translation, with a tree oracle."""
    base = _offset(rng)
    prims = tuple(
        Prim(pid, kind, tuple(float(v) for v in base + centre), size)
        for pid, kind, centre, size in _REFERENCE_PRIMS
    )
    target = union(
        prim("A"),
        inter(prim("B"), comp(prim("D"))),
        inter(prim("C"), prim("D")),
        inter(comp(prim("D")), prim("E"), comp(prim("F"))),
    )
    return Scene("reference", prims, target, "tree", "qubo_sa", _REFERENCE_CELLS, None)


def workload_scenes(workload: str, seed: int) -> list[Scene]:
    """The scene set of a named workload for one seed."""
    rng = np.random.default_rng([seed, 0x5CE7E])
    if workload == "chain":
        return [chain_scene(rng, 12, "cloud", "dlx")]
    if workload == "grid":
        return [grid_scene(rng, 4)]
    if workload == "anneal":
        return [
            reference_scene(rng),
            chain_scene(rng, 6, "tree", "qubo_sa"),
        ]
    raise ValueError(f"unknown workload {workload!r}")
