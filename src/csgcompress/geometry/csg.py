"""Boolean expression trees over implicit primitives.

A tree value at a point composes the signed distances of the leaves with
min (union), max (intersection), and negation (complement).  The composed
value keeps the sign contract of the primitives -- negative means inside --
so membership is simply ``tree_value(...) < 0``; the value itself is only a
bound on the true distance.  A point with value exactly zero is classified
outside, which keeps inside sets open and sampling stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import StructuralError
from .primitives import Primitive, signed_distance


@dataclass(frozen=True)
class Leaf:
    prim: str


@dataclass(frozen=True)
class Union:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise StructuralError("union needs at least two children")


@dataclass(frozen=True)
class Intersection:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise StructuralError("intersection needs at least two children")


@dataclass(frozen=True)
class Complement:
    child: object


CsgNode = Leaf | Union | Intersection | Complement


def leaf_count(tree: CsgNode) -> int:
    """Number of Leaf nodes, the tree-size measure used throughout."""
    if isinstance(tree, Leaf):
        return 1
    if isinstance(tree, Complement):
        return leaf_count(tree.child)
    return sum(leaf_count(c) for c in tree.children)


def leaf_ids(tree: CsgNode) -> set[str]:
    if isinstance(tree, Leaf):
        return {tree.prim}
    if isinstance(tree, Complement):
        return leaf_ids(tree.child)
    out: set[str] = set()
    for c in tree.children:
        out |= leaf_ids(c)
    return out


def tree_value(tree: CsgNode, by_id: dict[str, Primitive], points) -> np.ndarray:
    """Composed implicit value at each of the (N, 3) ``points``; (N,).

    ``by_id`` maps primitive ids to primitives (see ``index_primitives``).
    Each primitive is evaluated once per call, however many leaves name it,
    and the leaves that name it share its distance array.  A union or
    intersection folds its children pairwise, left to right, into one new
    (N,) array, so every operation loops over the points and no (L, N)
    stack is built; the values are bit-identical to ``np.minimum.reduce``
    and ``np.maximum.reduce`` over the children, and no leaf's shared
    array is ever written.
    """
    return _tree_value(tree, by_id, points, {})


def _tree_value(tree, by_id, points, distances: dict[str, np.ndarray]) -> np.ndarray:
    if isinstance(tree, Leaf):
        d = distances.get(tree.prim)
        if d is None:
            prim = by_id.get(tree.prim)
            if prim is None:
                raise StructuralError(
                    f"tree references unknown primitive {tree.prim!r}"
                )
            d = distances[tree.prim] = signed_distance(prim, points)
        return d
    if isinstance(tree, (Union, Intersection)):
        fold = np.minimum if isinstance(tree, Union) else np.maximum
        first, second, *rest = (
            _tree_value(c, by_id, points, distances) for c in tree.children
        )
        out = fold(first, second)  # a new array: children may be shared leaves
        for value in rest:
            fold(out, value, out=out)
        return out
    if isinstance(tree, Complement):
        return -_tree_value(tree.child, by_id, points, distances)
    raise StructuralError(f"unknown tree node {tree!r}")


# ---------------------------------------------------------------------------
# JSON encoding: {"op": "union"|"inter"|"comp"|"prim", "children": [...],
#                 "prim": id}
# ---------------------------------------------------------------------------

def tree_to_dict(tree: CsgNode) -> dict:
    if isinstance(tree, Leaf):
        return {"op": "prim", "prim": tree.prim}
    if isinstance(tree, Union):
        return {"op": "union", "children": [tree_to_dict(c) for c in tree.children]}
    if isinstance(tree, Intersection):
        return {"op": "inter", "children": [tree_to_dict(c) for c in tree.children]}
    if isinstance(tree, Complement):
        return {"op": "comp", "children": [tree_to_dict(tree.child)]}
    raise StructuralError(f"unknown tree node {tree!r}")


def tree_from_dict(obj: dict) -> CsgNode:
    if not isinstance(obj, dict):
        raise StructuralError(f"tree node must be a JSON object, got {obj!r}")
    op = obj.get("op")
    if op == "prim":
        if "prim" not in obj:
            raise StructuralError("prim node without 'prim' id")
        return Leaf(str(obj["prim"]))
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise StructuralError(f"{op!r} node 'children' must be an array")
    children = [tree_from_dict(c) for c in children]
    if op == "union":
        return Union(tuple(children))
    if op == "inter":
        return Intersection(tuple(children))
    if op == "comp":
        if len(children) != 1:
            raise StructuralError("comp node needs exactly one child")
        return Complement(children[0])
    raise StructuralError(f"unknown tree op {op!r}")
