"""Nested Archimedean copula trees.

A tree carries one regular-variation index ``alpha_v > 0`` per internal vertex
and one leaf per coordinate.  Everything tail-related depends on the tree only
through these indices and the leaf counts:

* tail copula, by the post-order recursion
  ``L_v(x) = (sum_w L_w(x_w) ** (-1/alpha_v)) ** (-alpha_v)``;
* its maximum over the unit-product set, both as a child-by-child recursion
  and as a closed-form product over internal descendants;
* the (unique) maximizing direction, as a product over leaf ancestors.

Products of powers are accumulated in log space so deep trees and large
indices neither overflow nor underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EvaluationError, SpecError

__all__ = ["NacTree", "NestingReport"]

# the tree walkers recurse once per level; deeper trees are rejected at
# parse time so that no walker can exhaust the interpreter's stack
MAX_TREE_DEPTH = 200


@dataclass(frozen=True)
class NestingReport:
    """Result of the Clayton sufficient-nesting check (parent index >= child index)."""

    satisfied: bool
    violations: tuple[tuple[int, int, float, float], ...]
    # each violation: (parent_vertex, child_vertex, alpha_parent, alpha_child)

    def to_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "violations": [
                {"parent": p, "child": c, "alpha_parent": ap, "alpha_child": ac}
                for (p, c, ap, ac) in self.violations
            ],
        }


class NacTree:
    """Immutable rooted tree with per-vertex indices and derived leaf data.

    Vertices are integers in preorder, 0 being the root.  Leaves carry 1-based
    coordinate labels forming a permutation of 1..d; labels may be omitted in
    the input, in which case they are assigned left to right.
    """

    __slots__ = (
        "_alpha",
        "_children",
        "_parent",
        "_leaf_pos",
        "_leaf_count",
        "_leaves_below",
        "_internal",
        "_dim",
    )

    def __init__(
        self,
        alpha: Sequence[float | None],
        children: Sequence[Sequence[int]],
        leaf_pos: Sequence[int | None],
    ) -> None:
        n = len(alpha)
        if not (n == len(children) == len(leaf_pos)):
            raise SpecError("inconsistent vertex arrays")
        self._alpha = tuple(None if a is None else float(a) for a in alpha)
        self._children = tuple(tuple(int(c) for c in cs) for cs in children)
        self._leaf_pos = tuple(None if p is None else int(p) for p in leaf_pos)

        parent: list[int | None] = [None] * n
        for v, cs in enumerate(self._children):
            for c in cs:
                if not v < c < n:
                    raise SpecError("vertices must be numbered in preorder (children after parents)")
                if parent[c] is not None:
                    raise SpecError(f"vertex {c} has two parents")
                parent[c] = v
        self._parent = tuple(parent)

        self._internal = tuple(v for v in range(n) if self._children[v])
        for v in self._internal:
            if self._alpha[v] is None:
                raise SpecError(f"internal vertex {v} has no alpha")
            if not (math.isfinite(self._alpha[v]) and self._alpha[v] > 0.0):
                raise SpecError(f"alpha at vertex {v} must be positive and finite")
            if len(self._children[v]) < 2:
                raise SpecError(
                    f"vertex {v} has a single child; collapse it into its parent"
                )
        if not self._children[0]:
            raise SpecError("the root must be internal (at least two leaves)")

        leaves_below: list[tuple[int, ...]] = [()] * n
        counts = [0] * n
        for v in range(n - 1, -1, -1):  # children follow parents in preorder
            if self._children[v]:
                acc: list[int] = []
                for c in self._children[v]:
                    acc.extend(leaves_below[c])
                leaves_below[v] = tuple(sorted(acc))
                counts[v] = len(leaves_below[v])
            else:
                if self._leaf_pos[v] is None:
                    raise SpecError(f"leaf vertex {v} has no coordinate label")
                leaves_below[v] = (self._leaf_pos[v],)
                counts[v] = 1
        self._leaves_below = tuple(leaves_below)
        self._leaf_count = tuple(counts)
        self._dim = counts[0]

        positions = sorted(leaves_below[0])
        if positions != list(range(self._dim)):
            labels = sorted(p + 1 for p in leaves_below[0])
            raise SpecError(f"leaf labels must be a permutation of 1..{self._dim}, got {labels}")

    # ------------------------------------------------------------------
    # construction from / serialization to nested dicts
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, node: Mapping, path: str = "tree") -> "NacTree":
        """Build a tree from nested ``{"alpha": a, "children": [...]}`` dicts.

        A leaf is ``{"leaf": j}`` with an optional 1-based label j; either all
        leaves are labeled or none are (unlabeled leaves are numbered left to
        right).
        """
        alpha: list[float | None] = []
        children: list[list[int]] = []
        raw_labels: list[int | None] = []

        def walk(n: Mapping, p: str, depth: int) -> int:
            if not isinstance(n, Mapping):
                raise SpecError(f"{p}: expected an object, got {type(n).__name__}")
            if depth > MAX_TREE_DEPTH:
                raise SpecError(f"{path}: tree is deeper than {MAX_TREE_DEPTH} levels")
            v = len(alpha)
            alpha.append(None)
            children.append([])
            raw_labels.append(None)
            if "children" in n:
                if "leaf" in n:
                    raise SpecError(f"{p}: a vertex cannot carry both 'children' and 'leaf'")
                if "alpha" not in n:
                    raise SpecError(f"{p}: internal vertex is missing 'alpha'")
                a = n["alpha"]
                if not isinstance(a, (int, float)) or isinstance(a, bool):
                    raise SpecError(f"{p}.alpha: expected a number, got {a!r}")
                alpha[v] = float(a)
                kids = n["children"]
                if not isinstance(kids, Sequence) or isinstance(kids, (str, bytes)):
                    raise SpecError(f"{p}.children: expected a list")
                for i, kid in enumerate(kids):
                    children[v].append(walk(kid, f"{p}.children[{i}]", depth + 1))
            else:
                label = n.get("leaf")
                if label is not None:
                    if not isinstance(label, int) or isinstance(label, bool) or label < 1:
                        raise SpecError(f"{p}.leaf: expected a positive integer label, got {label!r}")
                    raw_labels[v] = int(label)
                extra = set(n) - {"leaf"}
                if extra:
                    raise SpecError(f"{p}: unknown leaf keys {sorted(extra)}")
            return v

        walk(node, path, 0)

        leaf_vertices = [v for v in range(len(alpha)) if not children[v]]
        labeled = [raw_labels[v] for v in leaf_vertices if raw_labels[v] is not None]
        if labeled and len(labeled) != len(leaf_vertices):
            raise SpecError(f"{path}: either label every leaf or none")
        leaf_pos: list[int | None] = [None] * len(alpha)
        if labeled:
            for v in leaf_vertices:
                leaf_pos[v] = raw_labels[v] - 1
        else:
            for i, v in enumerate(leaf_vertices):
                leaf_pos[v] = i
        return cls(alpha, children, leaf_pos)

    def to_dict(self) -> dict:
        """Nested-dict form; always emits explicit leaf labels."""

        def build(v: int) -> dict:
            if self._children[v]:
                return {
                    "alpha": self._alpha[v],
                    "children": [build(c) for c in self._children[v]],
                }
            return {"leaf": self._leaf_pos[v] + 1}

        return build(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NacTree):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(repr(self.to_dict()))

    def __repr__(self) -> str:
        return f"NacTree(d={self._dim}, vertices={len(self._alpha)})"

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def root(self) -> int:
        return 0

    @property
    def n_vertices(self) -> int:
        return len(self._alpha)

    @property
    def internal_vertices(self) -> tuple[int, ...]:
        return self._internal

    def alpha(self, v: int) -> float:
        a = self._alpha[v]
        if a is None:
            raise EvaluationError(f"vertex {v} is a leaf and has no alpha")
        return a

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def parent(self, v: int) -> int | None:
        return self._parent[v]

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    def leaf_count(self, v: int) -> int:
        return self._leaf_count[v]

    def leaves_below(self, v: int) -> tuple[int, ...]:
        """Sorted 0-based coordinate positions of the leaves under v."""
        return self._leaves_below[v]

    def _require_internal(self, v: int) -> None:
        if not 0 <= v < len(self._alpha):
            raise EvaluationError(f"vertex {v} out of range")
        if self.is_leaf(v):
            raise EvaluationError(f"vertex {v} is a leaf")

    # ------------------------------------------------------------------
    # tail copula
    # ------------------------------------------------------------------

    def tail_copula(self, x: Sequence[float], vertex: int = 0) -> float:
        """Evaluate the tail copula of the (sub)tree rooted at ``vertex``.

        ``x`` has one strictly positive entry per leaf below ``vertex``,
        ordered by coordinate position.
        """
        self._require_internal(vertex)
        pos = self._leaves_below[vertex]
        xs = [float(v) for v in x]
        if len(xs) != len(pos):
            raise EvaluationError(f"expected a vector of length {len(pos)}, got {len(xs)}")
        for j, v in enumerate(xs):
            if not (math.isfinite(v) and v > 0.0):
                raise EvaluationError(f"x[{j}] must be strictly positive and finite, got {v}")
        rank = {p: i for i, p in enumerate(pos)}

        def rec(v: int) -> float:
            if not self._children[v]:
                return xs[rank[self._leaf_pos[v]]]
            a = self._alpha[v]
            vals = [rec(c) for c in self._children[v]]
            mn = min(vals)
            if mn == 0.0:  # a subtree underflowed; L <= min makes this 0
                return 0.0
            inv = -1.0 / a
            s = sum((u / mn) ** inv for u in vals)
            return mn * s ** (-a)

        return rec(vertex)

    def tail_copula_batch(self, X, vertex: int = 0) -> np.ndarray:
        """Row-wise tail copula over an (n, d(vertex)) array of positive points."""
        self._require_internal(vertex)
        pos = self._leaves_below[vertex]
        A = np.asarray(X, dtype=float)
        if A.ndim != 2 or A.shape[1] != len(pos):
            raise EvaluationError(f"expected an (n, {len(pos)}) array, got shape {A.shape}")
        if not np.all(np.isfinite(A)) or np.any(A <= 0.0):
            raise EvaluationError("batch must be strictly positive and finite")
        rank = {p: i for i, p in enumerate(pos)}

        def rec(v: int) -> np.ndarray:
            if not self._children[v]:
                return A[:, rank[self._leaf_pos[v]]]
            a = self._alpha[v]
            vals = np.column_stack([rec(c) for c in self._children[v]])
            mn = vals.min(axis=1)
            # a ratio that overflows is inf, whose negative power is the
            # limit 0; a row whose subtree underflowed to 0 divides by 1
            # instead, and its 0 ** (-1/a) = inf gives mn * 0 = 0
            with np.errstate(over="ignore", divide="ignore"):
                s = np.power(vals / np.where(mn > 0.0, mn, 1.0)[:, None], -1.0 / a).sum(axis=1)
            return mn * s ** (-a)

        return rec(vertex)

    # ------------------------------------------------------------------
    # maximal tail concordance
    # ------------------------------------------------------------------

    def mtcm_recursive(self, vertex: int = 0) -> float:
        """Maximum of the (sub)tree tail copula over the unit-product set,
        by the child recursion: at an internal v with children w,

            m_v = d(v)**(-a_v) * prod_w (d(w)**a_v * m_w) ** (d(w)/d(v)),

        with m = 1 at leaves.  Computed in log space.
        """
        self._require_internal(vertex)

        def rec(v: int) -> float:  # returns log m_v
            if not self._children[v]:
                return 0.0
            a = self._alpha[v]
            dv = self._leaf_count[v]
            acc = -a * math.log(dv)
            for w in self._children[v]:
                dw = self._leaf_count[w]
                acc += (dw / dv) * (a * math.log(dw) + rec(w))
            return acc

        return math.exp(rec(vertex))

    def mtcm_closed(self, vertex: int = 0) -> float:
        """Closed form of ``mtcm_recursive``: a single product over the
        internal descendants of ``vertex`` (empty product = 1),

            m_v = d(v)**(-a_v)
                  * prod_w d(w)**((a_pa(w) - a_w) d(w) / d(v)).
        """
        self._require_internal(vertex)
        a_v = self._alpha[vertex]
        dv = self._leaf_count[vertex]
        acc = -a_v * math.log(dv)
        stack = list(self._children[vertex])
        while stack:
            w = stack.pop()
            if not self._children[w]:
                continue
            dw = self._leaf_count[w]
            acc += (self._alpha[self._parent[w]] - self._alpha[w]) * dw / dv * math.log(dw)
            stack.extend(self._children[w])
        return math.exp(acc)

    def maximizer(self, vertex: int = 0) -> np.ndarray:
        """Unique maximizing direction for the (sub)tree rooted at ``vertex``.

        Component for leaf j (entries ordered by coordinate position):

            b_j = m_v * d(v)**a_v * prod_w d(w)**(a_w - a_pa(w))

        over the internal vertices w strictly between ``vertex`` and j.  The
        entries multiply to 1 and the subtree tail copula at b equals m_v.
        """
        self._require_internal(vertex)
        a_v = self._alpha[vertex]
        dv = self._leaf_count[vertex]
        log_m = math.log(self.mtcm_closed(vertex))
        base = log_m + a_v * math.log(dv)

        pos = self._leaves_below[vertex]
        rank = {p: i for i, p in enumerate(pos)}
        out = np.empty(len(pos))

        def walk(v: int, acc: float) -> None:
            for w in self._children[v]:
                if self._children[w]:
                    dw = self._leaf_count[w]
                    step = (self._alpha[w] - self._alpha[self._parent[w]]) * math.log(dw)
                    walk(w, acc + step)
                else:
                    out[rank[self._leaf_pos[w]]] = math.exp(acc)

        walk(vertex, base)
        return out

    def check_clayton_nesting(self) -> NestingReport:
        """Clayton sufficient-nesting condition: alpha never increases from a
        parent to an internal child.  Advisory: the recursion and closed forms
        above are well-defined for any positive indices.
        """
        violations = []
        for v in self._internal:
            p = self._parent[v]
            if p is None:
                continue
            if self._alpha[p] < self._alpha[v]:
                violations.append((p, v, self._alpha[p], self._alpha[v]))
        return NestingReport(satisfied=not violations, violations=tuple(violations))
