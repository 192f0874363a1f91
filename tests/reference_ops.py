"""Test-only autodiff ops kept as references for the fused nodes.

``add``, ``mul`` (both with numpy-style broadcasting), ``matmul``, ``tanh``
and ``tsum`` are the general ops that ``dense``, the weighted loss totals
and the gradient-check objectives once were built from; ``add(matmul(x, w),
b)`` is the reference for the fused ``dense``. ``gru_step`` is the
per-frame recurrence graph that ``gru_sequence`` replaced, and
``recur_per_step`` walks a GRU stack with it one frame at a time;
``slice_axis`` and ``sub`` are the structural and elementwise ops only
those references and the composite loss graphs use. ``as_tensor`` wraps a
constant as an edge-free tensor. ``LoopAdam`` is the per-parameter Adam
loop that the flat-store ``Adam`` replaced. ``initial_state``,
``trunk_parameters``, ``parameter_count`` and ``single_task_spec`` are
helpers only tests use.
``build_then_overwrite`` is the load path that ``Model(..., values=...)``
replaced: a seeded build, then a strict copy of every checkpoint array.
"""

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from affectkit import autodiff as ad
from affectkit.autodiff import DiffTensor, GruCell
from affectkit.errors import BadCheckpoint, InvalidSpec, ShapeMismatch
from affectkit.models import HEAD_NAMES, Model, ModelSpec, load_parameters


def as_tensor(value) -> DiffTensor:
    return value if isinstance(value, DiffTensor) else DiffTensor(value)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatch(f"add {a.shape} vs {b.shape}") from exc
    return DiffTensor(
        out_data,
        edges=(
            (a, lambda g: _unbroadcast(g, a.shape)),
            (b, lambda g: _unbroadcast(g, b.shape)),
        ),
    )


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatch(f"mul {a.shape} vs {b.shape}") from exc
    return DiffTensor(
        out_data,
        edges=(
            (a, lambda g: _unbroadcast(g * b.data, a.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.shape)),
        ),
    )


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out_data = a.data - b.data
    except ValueError as exc:
        raise ShapeMismatch(f"sub {a.shape} vs {b.shape}") from exc
    return DiffTensor(
        out_data,
        edges=(
            (a, lambda g: _unbroadcast(g, a.shape)),
            (b, lambda g: _unbroadcast(-g, b.shape)),
        ),
    )


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    return DiffTensor(
        a.data @ b.data,
        edges=(
            (a, lambda g: g @ b.data.T),
            (b, lambda g: a.data.T @ g),
        ),
    )


def tanh(x: DiffTensor) -> DiffTensor:
    t = np.tanh(x.data)
    return DiffTensor(t, edges=((x, lambda g: g * (1.0 - t * t)),))


def tsum(x: DiffTensor, axis: Optional[int] = None, keepdims: bool = False) -> DiffTensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.shape)

    return DiffTensor(out_data, edges=((x, vjp),))


def square(t: DiffTensor) -> DiffTensor:
    return mul(t, t)


def slice_axis(x: DiffTensor, start: int, stop: int, axis: int = -1) -> DiffTensor:
    ax = axis if axis >= 0 else x.ndim + axis
    if not 0 <= start <= stop <= x.shape[ax]:
        raise ShapeMismatch(f"slice [{start}:{stop}] on axis {ax} of {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[ax] = slice(start, stop)
    sl = tuple(sl)

    def vjp(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[sl] = g
        return full

    return DiffTensor(x.data[sl], edges=((x, vjp),))


def gru_step(cell: GruCell, x: DiffTensor, h_prev: DiffTensor) -> DiffTensor:
    """One recurrence step; x is (B, input_dim), h_prev is (B, hidden_dim)."""
    if x.ndim != 2 or x.shape[1] != cell.input_dim:
        raise ShapeMismatch(f"gru input {x.shape}, expected (B,{cell.input_dim})")
    if h_prev.ndim != 2 or h_prev.shape[1] != cell.hidden_dim:
        raise ShapeMismatch(f"gru state {h_prev.shape}, expected (B,{cell.hidden_dim})")
    xh = ad.concat([x, h_prev], axis=1)
    z = ad.sigmoid(ad.dense(xh, cell.w_z, cell.b_z))
    r = ad.sigmoid(ad.dense(xh, cell.w_r, cell.b_r))
    candidate = tanh(ad.dense(ad.concat([x, mul(r, h_prev)], axis=1), cell.w_h, cell.b_h))
    return add(mul(sub(as_tensor(1.0), z), h_prev), mul(z, candidate))


def initial_state(cell: GruCell, batch: int) -> DiffTensor:
    """The zero state a recurrence starts from, (batch, hidden_dim)."""
    return DiffTensor(np.zeros((batch, cell.hidden_dim)))


def recur_per_step(cells, x: DiffTensor, b_size: int, t_len: int) -> DiffTensor:
    """Walk a GRU stack over time-major rows one frame's B rows at a time."""
    states = [initial_state(cell, b_size) for cell in cells]
    outs = []
    for t in range(t_len):
        h = slice_axis(x, t * b_size, (t + 1) * b_size, axis=0)
        for k, cell in enumerate(cells):
            h = states[k] = gru_step(cell, h, states[k])
        outs.append(h)
    return ad.concat(outs, axis=0)


class LoopAdam:
    """Bias-corrected Adam as one update per parameter tensor, rebinding
    each ``p.data``; the oracle for ``autodiff.Adam``."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = float(lr), beta1, beta2, eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = np.zeros_like(p.data)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"gradient {g.shape} vs parameter {p.data.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def trunk_parameters(model: Model):
    return [p for n, p in model.named_parameters().items() if not n.startswith("head.")]


def parameter_count(model: Model) -> int:
    return sum(p.size for p in model.parameters())


def single_task_spec(spec: ModelSpec, head: str) -> ModelSpec:
    """The same architecture restricted to one head (comparison runs)."""
    if head not in HEAD_NAMES:
        raise InvalidSpec(f"unknown head {head!r}")
    return replace(spec, heads=(head,))


def build_then_overwrite(spec, dims, seed, values) -> Model:
    """Draw a model from ``seed``, check that ``values`` names exactly its
    parameters, then copy each array into place."""
    model = Model(spec, dims, seed=seed)
    params = model.named_parameters()
    missing = sorted(set(params) - set(values))
    extra = sorted(set(values) - set(params))
    if missing or extra:
        raise BadCheckpoint(f"parameter names differ: missing={missing} extra={extra}")
    load_parameters(model, values)
    return model
