"""Reverse-mode differentiation over real matrices, for gradient checks.

Eager, define-by-run: every op computes its value immediately and records
a backward function of the gradient `g` of its output that returns one
gradient per parent, in parent order, or `None` for a parent it does not
reach. `backward` alone adds those into the parents' `.grad`, and it skips
constant parents (`op == "const"`). The primitives are add and elementwise
mul of equal shapes and the sum of every entry. Training does not use the
tape: the model's kernels (the encoder in `attention.py`, the losses in
`contrastive.py`) each return a value and a `back` closure, which
`contrastive.train` calls in a fixed order. Their tape adaptors
(`attention.encode_view_tensors`, `contrastive.lcl_tensor` and
`hgcl_tensor`) are one node each over the same kernels, so
`finite_diff_check` checks the derivatives training uses. Everything is
float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives operands of incompatible shapes."""


class BackwardError(RuntimeError):
    """Raised on misuse of the backward pass (double backward, non-scalar root)."""


def _as_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A node in the computation graph: a float64 array plus grad plumbing."""

    __slots__ = ("value", "grad", "op", "_parents", "_backward")

    def __init__(self, value, op: str = "leaf",
                 parents: tuple["Tensor", ...] = (),
                 backward: Callable[[np.ndarray], Sequence] | None = None):
        self.value = _as_array(value)
        self.grad: np.ndarray | None = None
        self.op = op
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"

    # Arithmetic sugar so loss code reads like the math.
    def __add__(self, other): return add(self, _wrap(other))
    def __mul__(self, other): return mul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def topo_order(root: Tensor) -> list[Tensor]:
    """Deterministic topological order of the subgraph rooted at `root`."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate gradients of the scalar `root` into every node's `.grad`.

    Gradients sum over all paths into each node's `.grad`; constant nodes and
    leaves the root does not reach keep `grad=None` (read leaves back with
    `grad_of`, which substitutes zeros).
    Higher-order differentiation is out of contract: a second backward
    through the same root is an error.
    """
    if root.value.size != 1:
        raise BackwardError(f"backward root must be scalar, got shape {root.value.shape}")
    if root.grad is not None:
        raise BackwardError("backward already ran on this root; double backward is unsupported")
    root.grad = np.ones_like(root.value)
    for node in reversed(topo_order(root)):
        if node.grad is None or node._backward is None:
            continue
        for parent, grad in zip(node._parents, node._backward(node.grad)):
            if grad is not None and parent.op != "const":
                parent.grad = grad + (0.0 if parent.grad is None else parent.grad)


def grad_of(leaf: Tensor) -> np.ndarray:
    """Gradient accumulated at a leaf, zeros if no path reached it."""
    return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)


# ---------------------------------------------------------------------------
# primitives

def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    return Tensor(a.value + b.value, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    return Tensor(a.value * b.value, "mul", (a, b),
                  lambda g: (g * b.value, g * a.value))


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry of `a`."""
    return Tensor(a.value.sum(), "sum", (a,),
                  lambda g: (np.broadcast_to(g, a.value.shape),))


# ---------------------------------------------------------------------------
# composites used throughout the model code

def sum_of_squares(tensors: Iterable[Tensor]) -> Tensor:
    total = None
    for t in tensors:
        sq = tsum(mul(t, t))
        total = sq if total is None else add(total, sq)
    if total is None:
        raise ValueError("sum_of_squares: no tensors given")
    return total


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class BlockCheck:
    name: str
    max_rel_error: float
    passed: bool


@dataclass
class FiniteDiffReport:
    blocks: list[BlockCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.blocks)

    @property
    def worst(self) -> float:
        return max((b.max_rel_error for b in self.blocks), default=0.0)

    def failing(self) -> list[str]:
        return [b.name for b in self.blocks if not b.passed]


def finite_diff_check(loss_fn: Callable[[dict[str, Tensor]], Tensor],
                      params: dict[str, np.ndarray],
                      step: float = 1e-5,
                      tolerance: float = 1e-4,
                      floor: float = 1e-3) -> FiniteDiffReport:
    """Compare reverse-mode gradients of a scalar loss to central differences.

    `loss_fn` must build a fresh graph from the leaf tensors it is handed and
    return a scalar Tensor. Per entry, the relative error is
    |fd - ad| / max(|fd|, |ad|, floor); a block passes when its max relative
    error stays within `tolerance`.
    """
    leaves = {name: Tensor(value.copy()) for name, value in params.items()}
    out = loss_fn(leaves)
    if out.value.size != 1:
        raise BackwardError("finite_diff_check: loss must be scalar-valued")
    backward(out)
    analytic = {name: grad_of(leaf).copy() for name, leaf in leaves.items()}

    work = {name: value.copy() for name, value in params.items()}

    def eval_loss() -> float:
        t = {name: Tensor(value) for name, value in work.items()}
        return float(loss_fn(t).value)

    report = FiniteDiffReport()
    for name in params:
        block = work[name]
        ad = analytic[name]
        worst = 0.0
        flat = block.reshape(-1)
        ad_flat = ad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = eval_loss()
            flat[k] = orig - step
            down = eval_loss()
            flat[k] = orig
            fd = (up - down) / (2.0 * step)
            denom = max(abs(fd), abs(ad_flat[k]), floor)
            worst = max(worst, abs(fd - ad_flat[k]) / denom)
        report.blocks.append(BlockCheck(name, worst, worst <= tolerance))
    return report
