"""Reverse-mode automatic differentiation over small dense tensors.

Everything differentiable in the toolkit flows through :class:`DiffTensor`:
a 64-bit numpy array plus a gradient accumulator and the edges that link it
to the tensors it was computed from. Each edge carries a closure mapping
the output gradient to the contribution for one parent, so ``backward``
is a reverse-topological sweep calling closures in construction order,
which makes repeated runs on the same graph bit-identical.

No node holds a gradient until a sweep reaches it. A leaf (parameters,
inputs, constants) starts from zeros and adds every contribution in place;
an inner node keeps its first as it is and adds later ones with
``grad + d``, never in place, because a vjp may return a view of its
child's gradient. ``backward(root, wrt=params)`` fires only the edges into
nodes with a path to ``params``, so inputs and frozen layers get no vjp.

The op set is exactly what the model zoo needs: ``dense`` (one affine
node with a closed-form vjp), ``relu``, ``concat``, ``take_rows``,
inverted ``dropout``, ``fused`` and ``gru_sequence``. ``fused`` is a node
whose gradients were computed in closed form together with its value: a
training step's whole loss is one. ``gru_sequence`` runs a gated recurrent
cell over whole sequences as one node with a hand-written BPTT. The Adam
optimizer, the :class:`Parameters` factory and a binary checkpoint format
for named parameter sets live here too.

There is no softmax or sigmoid node: the loss node applies their vjps
inline, and inference needs no gradient (``sigmoid_values`` serves both).

:class:`Adam` owns a flat parameter store: it copies its parameters into
one contiguous vector and rebinds each ``data`` and ``grad`` to a view of
that vector and of a zeroed second one, so a step is a few whole-vector
operations and ``zero_grad`` is one ``fill``. Once an optimizer holds a
parameter, its value is written in place (``models.load_parameters`` does
so for ``init_from``; a whole checkpoint loads through ``models.Model``);
``step`` refuses a parameter whose ``data`` or ``grad`` was rebound.

Floats are 64-bit throughout; at this scale gradient-check fidelity is
worth more than speed.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .csvfile import atomic_write
from .errors import (
    BadCheckpoint,
    ConfigError,
    NonScalarRoot,
    ShapeMismatch,
    ValueOutOfRange,
)


class DiffTensor:
    """Array node in a reverse-mode computation graph.

    ``data`` holds the value, ``grad`` the accumulated gradient of the
    eventual scalar root with respect to this node: ``None`` until a
    ``backward`` sweep reaches the node. ``_edges`` pairs each parent with
    the closure producing its gradient contribution.
    """

    __slots__ = ("data", "grad", "_edges")

    def __init__(self, data, edges: Sequence = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self._edges = tuple(edges)
        self.grad = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self._edges:
            self.grad = None  # may be a view of another node's gradient
        elif self.grad is not None:
            self.grad.fill(0.0)  # in place: an optimizer may hold a view of it

    def __repr__(self) -> str:
        return f"DiffTensor(shape={self.shape}, edges={len(self._edges)})"


# ---------------------------------------------------------------------------
# primitive operations


def dense(x: DiffTensor, w: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Affine layer x @ w + b, b added to every row, as one node."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatch(f"dense {x.shape} @ {w.shape} + {b.shape}")
    return DiffTensor(
        x.data @ w.data + b.data,
        edges=(
            (x, lambda g: g @ w.data.T),
            (w, lambda g: x.data.T @ g),
            (b, lambda g: g.sum(axis=0)),
        ),
    )


def relu(x: DiffTensor) -> DiffTensor:
    mask = x.data > 0
    return DiffTensor(np.where(mask, x.data, 0.0), edges=((x, lambda g: g * mask),))


def sigmoid_values(v: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-v) for v >= 0 and
    e^v/(1+e^v) below, both from e^-|v|."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def concat(tensors: Sequence[DiffTensor], axis: int = -1) -> DiffTensor:
    if not tensors:
        raise ShapeMismatch("concat of zero tensors")
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeMismatch(str(exc)) from exc
    sizes = [t.shape[axis if axis >= 0 else t.ndim + axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i, t):
        def vjp(g):
            sl = [slice(None)] * g.ndim
            ax = axis if axis >= 0 else g.ndim + axis
            sl[ax] = slice(int(offsets[i]), int(offsets[i + 1]))
            return g[tuple(sl)]

        return vjp

    return DiffTensor(
        out_data, edges=tuple((t, make_vjp(i, t)) for i, t in enumerate(tensors))
    )


def take_rows(x: DiffTensor, indices) -> DiffTensor:
    """Gather rows of a 2-d tensor; duplicate indices accumulate on backward."""
    if x.ndim != 2:
        raise ShapeMismatch(f"take_rows expects a matrix, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatch("row indices must be a flat list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeMismatch(f"row index out of range for {x.shape}")

    def vjp(g):
        full = np.zeros(x.shape, dtype=np.float64)
        np.add.at(full, idx, g)
        return full

    return DiffTensor(x.data[idx], edges=((x, vjp),))


def dropout(
    x: DiffTensor,
    p: float,
    train: bool,
    rng: Optional[np.random.Generator] = None,
) -> DiffTensor:
    """Inverted dropout: surviving units are scaled by 1/(1-p) at train
    time so evaluation is a plain identity."""
    if not 0.0 <= p < 1.0:
        raise ValueOutOfRange(f"dropout probability {p} outside [0,1)")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in training mode needs a random generator")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return DiffTensor(x.data * mask, edges=((x, lambda g: g * mask),))


def fused(value, grads: Sequence[Tuple[DiffTensor, np.ndarray]]) -> DiffTensor:
    """Scalar node from a value and its closed-form gradient to each parent;
    backward only scales each precomputed gradient by the upstream one."""
    return DiffTensor(value, edges=tuple((p, lambda g, d=d: g * d) for p, d in grads))


# ---------------------------------------------------------------------------
# gated recurrent cell


class GruCell:
    """Single gated recurrent layer.

    Update convention: z and r gates are sigmoids of the concatenated
    [x, h] input; the candidate uses the reset-scaled state, and the new
    state is h' = (1-z)*h + z*candidate. ``param`` makes the six
    parameters, named under ``prefix``, in the order ``parameters`` lists.
    """

    def __init__(self, input_dim: int, hidden_dim: int, param: "Parameters", prefix: str):
        self.input_dim = int(input_dim)
        self.hidden_dim = int(hidden_dim)
        cat = (self.input_dim + self.hidden_dim, self.hidden_dim)
        self.w_z, self.b_z = param(f"{prefix}.w_z", cat), param(f"{prefix}.b_z", cat[1:])
        self.w_r, self.b_r = param(f"{prefix}.w_r", cat), param(f"{prefix}.b_r", cat[1:])
        self.w_h, self.b_h = param(f"{prefix}.w_h", cat), param(f"{prefix}.b_h", cat[1:])

    def parameters(self) -> List[DiffTensor]:
        return [self.w_z, self.b_z, self.w_r, self.b_r, self.w_h, self.b_h]


def gru_sequence(cell: GruCell, x: DiffTensor, b_size: int, t_len: int) -> DiffTensor:
    """Run ``cell`` from a zero state over time-major (T*B, input_dim) rows,
    frame t being rows [t*B, (t+1)*B), and return all T*B states as one node.

    Every frame's input projection is one matmul before the loop, which
    keeps only h @ U inside it; backward is one BPTT sweep over the stored
    gates, shared by the node's seven edges.
    """
    d, hid = cell.input_dim, cell.hidden_dim
    n = t_len * b_size
    if b_size < 1 or t_len < 1 or x.shape != (n, d):
        raise ShapeMismatch(f"gru input {x.shape}, expected ({t_len}*{b_size},{d})")
    w = np.hstack([cell.w_z.data, cell.w_r.data, cell.w_h.data])
    w_x, u_zr, u_h = w[:d], w[d:, : 2 * hid], w[d:, 2 * hid :]
    proj = x.data @ w_x + np.concatenate([cell.b_z.data, cell.b_r.data, cell.b_h.data])
    states = np.zeros((n + b_size, hid))  # block t holds the state entering frame t
    zr, cand = np.empty((n, 2 * hid)), np.empty((n, hid))
    for t in range(t_len):
        rows = slice(t * b_size, (t + 1) * b_size)
        h = states[rows]
        zr[rows] = sigmoid_values(proj[rows, : 2 * hid] + h @ u_zr)
        z, r = zr[rows, :hid], zr[rows, hid:]
        cand[rows] = np.tanh(proj[rows, 2 * hid :] + (r * h) @ u_h)
        states[rows.stop : rows.stop + b_size] = (1.0 - z) * h + z * cand[rows]
    h_in, z, r = states[:n], zr[:, :hid], zr[:, hid:]

    def bptt(g):
        # the factors of each pre-activation gradient that do not depend on dh
        dc_dh, keep = z * (1.0 - cand * cand), 1.0 - z
        dz_dh, dr_drh = (cand - h_in) * z * keep, h_in * r * (1.0 - r)
        d_pre = np.empty((n, 3 * hid))  # gradients of the z, r, candidate pre-activations
        dh = np.zeros((b_size, hid))
        for t in reversed(range(t_len)):
            rows = slice(t * b_size, (t + 1) * b_size)
            dh = dh + g[rows]
            d_rh = np.multiply(dh, dc_dh[rows], out=d_pre[rows, 2 * hid :]) @ u_h.T
            np.multiply(dh, dz_dh[rows], out=d_pre[rows, :hid])
            np.multiply(d_rh, dr_drh[rows], out=d_pre[rows, hid : 2 * hid])
            dh = dh * keep[rows] + d_rh * r[rows] + d_pre[rows, : 2 * hid] @ u_zr.T
        du = np.hstack([h_in.T @ d_pre[:, : 2 * hid], (r * h_in).T @ d_pre[:, 2 * hid :]])
        dw = np.vstack([x.data.T @ d_pre, du])
        grads = [d_pre]  # x's gradient, d_pre @ w_x.T, only if its edge fires
        for dw_gate, db_gate in zip(np.hsplit(dw, 3), np.split(d_pre.sum(axis=0), 3)):
            grads += [dw_gate, db_gate]
        return grads

    memo: List = [None, None]  # ``backward`` hands every edge the same array g

    def sweep(g, i):
        if g is not memo[0]:  # holding g keeps its identity from being recycled
            memo[:] = g, bptt(g)
        return memo[1][0] @ w_x.T if i == 0 else memo[1][i]

    parents = [x] + cell.parameters()
    return DiffTensor(
        states[b_size:],
        edges=tuple((p, lambda g, i=i: sweep(g, i)) for i, p in enumerate(parents)),
    )


# ---------------------------------------------------------------------------
# backward sweep


def backward(root: DiffTensor, wrt: Optional[Iterable[DiffTensor]] = None) -> None:
    """Accumulate d(root)/d(node) into every reachable node's ``grad``,
    or with ``wrt`` only into nodes with a path to a tensor in it, whose
    gradients are then bit-identical to a full sweep's.

    Leaves accumulate across calls, in place; every inner node's ``grad``
    is this sweep's gradient alone. Deterministic: nodes are visited in
    reverse construction-topological order and each node's edges fire in
    stored order.
    """
    if root.size != 1:
        raise NonScalarRoot(f"backward root must be scalar, got shape {root.shape}")
    visited = set()
    live = visited if wrt is None else set(wrt)  # nodes with a path to ``wrt``
    sweep: List[Tuple[DiffTensor, list]] = []  # live nodes and their live edges
    stack: List[Tuple[DiffTensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:  # post-order: every parent is done before its child
            edges = [edge for edge in node._edges if edge[0] in live]
            if edges:
                live.add(node)
                sweep.append((node, edges))
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        if node._edges:
            node.grad = None
        for parent, _ in node._edges:
            if parent not in visited:
                stack.append((parent, False))
    if root in live:
        _accumulate(root, np.ones_like(root.data))
    for node, edges in reversed(sweep):
        g = node.grad
        for parent, vjp in edges:
            _accumulate(parent, vjp(g))


def _accumulate(node: DiffTensor, d) -> None:
    if node._edges:
        node.grad = d if node.grad is None else node.grad + d
        return
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    if d.shape != node.grad.shape:  # an in-place add would broadcast
        raise ShapeMismatch(f"gradient {d.shape} for a leaf of shape {node.grad.shape}")
    node.grad += d


# ---------------------------------------------------------------------------
# initialization and optimization


def glorot_uniform(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform samples in +/- sqrt(6/(fan_in+fan_out)) for a (fan_in,
    fan_out) matrix."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Parameters:
    """Makes parameters by name, in call order, into ``named``: a matrix is
    a Glorot draw from ``seed`` (an int or a generator), a vector zeros. With
    ``values`` (checkpoint arrays by name) each adopts its array, undrawn and
    uncopied, and ``check`` raises BadCheckpoint unless they named exactly
    the parameters made, each in its shape."""

    def __init__(self, seed, values: Optional[Mapping[str, np.ndarray]] = None):
        self.named: Dict[str, DiffTensor] = {}
        self._values, self._mismatch = values, None  # the first shape mismatch
        self._rng = np.random.default_rng(seed) if values is None else None

    def __call__(self, name: str, shape: Tuple[int, ...]) -> DiffTensor:
        if self._values is None:
            data = glorot_uniform(shape, self._rng) if len(shape) == 2 else np.zeros(shape)
        else:
            data = self._values.get(name)  # a missing name is reported by ``check``
            data = np.zeros(shape) if data is None else np.asarray(data, dtype=np.float64)
            if data.shape != shape and self._mismatch is None:
                self._mismatch = f"{name}: checkpoint shape {data.shape} vs model {shape}"
        self.named[name] = p = DiffTensor(data)
        return p

    def check(self) -> None:
        if self._values is None:
            return
        missing = sorted(set(self.named) - set(self._values))
        extra = sorted(set(self._values) - set(self.named))
        if missing or extra:
            raise BadCheckpoint(f"parameter names differ: missing={missing} extra={extra}")
        if self._mismatch is not None:
            raise BadCheckpoint(self._mismatch)


class Adam:
    """Bias-corrected Adam over a fixed parameter list, held in a flat store.

    The constructor copies every parameter's value into one contiguous
    vector, starts a second one, the gradients, at zeros, and rebinds
    ``p.data`` and ``p.grad`` to reshaped views of them; the moments are two
    more vectors. ``step`` updates the whole value vector in place and
    refuses a parameter whose ``data`` or ``grad`` has been rebound since.
    ``lr`` stays writable so training loops can decay it between epochs.
    """

    def __init__(
        self,
        params: Iterable[DiffTensor],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        ends = np.cumsum([0] + [p.data.size for p in self.params])
        self._data, self._grad = np.empty(ends[-1]), np.zeros(ends[-1])
        self._m, self._v = np.zeros(ends[-1]), np.zeros(ends[-1])
        self._views: List[Tuple[np.ndarray, np.ndarray]] = []
        for p, start, stop in zip(self.params, ends, ends[1:]):
            data, grad = (v[start:stop].reshape(p.data.shape) for v in (self._data, self._grad))
            data[...] = p.data
            p.data, p.grad = data, grad
            self._views.append((data, grad))

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        for p, (data, grad) in zip(self.params, self._views):
            if p.data is not data or p.grad is not grad:
                raise ShapeMismatch(
                    f"parameter of shape {data.shape} no longer views the optimizer's store"
                )
        self.step_count += 1
        t = self.step_count
        m, v, g = self._m, self._v, self._grad
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        self._data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"AFMT"
CHECKPOINT_VERSION = 1


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise BadCheckpoint(f"truncated checkpoint: wanted {n} bytes, got {len(buf)}")
    return buf


def save_checkpoint(path, params: Mapping[str, object]) -> None:
    """Write named arrays (or DiffTensors) sorted by name.

    Layout: magic, u32 version, u32 entry count; per entry a u16 name
    length, UTF-8 name, u8 ndim, u32 per dimension, then the raw
    little-endian 64-bit values. Round-trips bit-exactly. The file at
    ``path`` is replaced only once the new one is whole.
    """
    items = sorted(params.items())
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(items)))
        for name, value in items:
            arr = np.asarray(
                value.data if isinstance(value, DiffTensor) else value,
                dtype=np.float64,
            )
            encoded = name.encode("utf-8")
            if not encoded or len(encoded) > 0xFFFF:
                raise BadCheckpoint(f"bad parameter name {name!r}")
            if arr.ndim > 0xFF:
                raise BadCheckpoint(f"too many dimensions for {name!r}")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise BadCheckpoint("bad magic")
        version, count = struct.unpack("<II", _read_exact(fh, 8))
        if version != CHECKPOINT_VERSION:
            raise BadCheckpoint(f"unsupported version {version}")
        out: Dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            try:
                name = _read_exact(fh, name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise BadCheckpoint("parameter name is not UTF-8") from exc
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
            dims = tuple(
                struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(ndim)
            )
            # read straight into the array: no bytes object, no second copy
            values = np.empty(dims, dtype="<f8")
            got = fh.readinto(values)
            if got != values.nbytes:
                raise BadCheckpoint(
                    f"truncated checkpoint: wanted {values.nbytes} bytes, got {got}"
                )
            if name in out:
                raise BadCheckpoint(f"duplicate parameter {name!r}")
            out[name] = values.astype(np.float64, copy=False)
        trailing = fh.read(1)
        if trailing:
            raise BadCheckpoint("trailing bytes after last entry")
    return out
