"""Declarative model builders over the autodiff engine.

A ModelSpec names a family of small architectures: a dense backbone whose
tapped layer outputs feed either the heads directly, one shared recurrent
stack, or one recurrent branch per tap; one or two input streams (visual,
audio) with per-stream backbones fused by concatenation; optional
per-frame landmark features appended to the last tap; and any subset of
the four output heads (VA regression, expression logits, AU logits, and a
compound-expression head for transfer experiments).

Composite specs (``members`` set) concatenate several member trunks into
one fusion trunk - recurrent or dense - and train the whole stack
end-to-end.

Parameters are made in a fixed order by one ``autodiff.Parameters``: drawn
from the seed, or adopted from a checkpoint (``Model(..., values=...)``).

Inside ``forward``, frame rows are time-major: row = t * B + b. Every
stateless layer (backbone, taps, stream and landmark concatenation, ``fc``
fusion, heads) runs once over all T*B rows, and each GRU layer (stacks and
the ``rnn`` fusion layer) is one ``gru_sequence`` node over all of them.

Annotation rows reach a model through :func:`pack_rows`: the rows of one
sequence (``sequence_keys``) become one row of the (B, T, D) batch, so
recurrent state never crosses unrelated rows; ``forward`` takes each
head's outputs back to row order by the batch's ``index``. A stateless
model, or a row with no sequence id, runs every row as a length-1 sequence.

The heads output logits; :func:`outputs` reads probabilities off them with
the loss's numpy softmax and sigmoid, as no graph node is needed for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor, GruCell
from .errors import (
    BadCheckpoint,
    EmptySequence,
    InvalidSpec,
    ShapeMismatch,
)
from .losses import BatchPredictions, softmax_parts
from .types import NUM_AUS, NUM_EXPRESSIONS, VA_DIM

HEAD_NAMES = ("VA", "EXPR", "AU", "COMPOUND")
_HEAD_WIDTHS = {"VA": VA_DIM, "EXPR": NUM_EXPRESSIONS, "AU": NUM_AUS}


@dataclass(frozen=True)
class RecurrentSpec:
    """Recurrent stage: one shared stack (``single``) over the concatenated
    taps, or one stack per tap (``per_tap``) whose outputs concatenate."""

    kind: str  # "single" | "per_tap"
    hidden: int
    layers: int = 1


@dataclass(frozen=True)
class InputDims:
    features: int
    audio: int = 0
    landmarks: int = 0


@dataclass(frozen=True)
class ModelSpec:
    backbone: Tuple[int, ...] = ()
    taps: Tuple[int, ...] = ()
    recurrent: Optional[RecurrentSpec] = None
    streams: int = 1
    heads: Tuple[str, ...] = ("VA",)
    landmark_concat: bool = False
    dropout: float = 0.0
    recurrent_dropout: float = 0.0
    compound_classes: int = 11
    # composite (model-level fusion) fields
    members: Optional[Tuple["ModelSpec", ...]] = None
    fusion: Optional[str] = None  # "rnn" | "fc"
    fusion_width: int = 16

    def validate(self) -> None:
        if not self.heads:
            raise InvalidSpec("at least one head required")
        for h in self.heads:
            if h not in HEAD_NAMES:
                raise InvalidSpec(f"unknown head {h!r}")
        if len(set(self.heads)) != len(self.heads):
            raise InvalidSpec("duplicate heads")
        if self.members is not None:
            if not self.members:
                raise InvalidSpec("composite spec needs at least one member")
            if self.fusion not in ("rnn", "fc"):
                raise InvalidSpec(f"fusion mode {self.fusion!r}")
            if self.fusion_width < 1:
                raise InvalidSpec("fusion_width must be positive")
            for m in self.members:
                if m.members is not None:
                    raise InvalidSpec("nested composites are not supported")
                m.validate()
            return
        if self.streams not in (1, 2):
            raise InvalidSpec(f"streams must be 1 or 2, got {self.streams}")
        for w in self.backbone:
            if w < 1:
                raise InvalidSpec("backbone widths must be positive")
        if self.taps:
            if list(self.taps) != sorted(set(self.taps)):
                raise InvalidSpec("taps must be strictly increasing")
            if self.taps[0] < 0 or self.taps[-1] >= len(self.backbone):
                raise InvalidSpec(f"tap out of range for backbone {self.backbone}")
            if self.taps[-1] != len(self.backbone) - 1:
                raise InvalidSpec("backbone layers after the last tap are unreachable")
        if self.recurrent is not None:
            if self.recurrent.kind not in ("single", "per_tap"):
                raise InvalidSpec(f"recurrent kind {self.recurrent.kind!r}")
            if self.recurrent.hidden < 1 or self.recurrent.layers < 1:
                raise InvalidSpec("recurrent hidden/layers must be positive")
            if self.recurrent.kind == "per_tap" and len(self.taps) < 2:
                raise InvalidSpec("per_tap recurrence needs at least 2 taps")
        for name, p in (("dropout", self.dropout), ("recurrent_dropout", self.recurrent_dropout)):
            if not 0.0 <= p < 1.0:
                raise InvalidSpec(f"{name}={p} outside [0,1)")
        if "COMPOUND" in self.heads and self.compound_classes < 2:
            raise InvalidSpec("compound head needs at least 2 classes")

    @property
    def stateful(self) -> bool:
        """Whether the model carries state from frame to frame: a GRU
        anywhere in it. A stateless model maps every row on its own."""
        specs = self.members if self.members is not None else (self,)
        return self.fusion == "rnn" or any(s.recurrent is not None for s in specs)


@dataclass
class SequenceBatch:
    """B sequences of T frames. ``features`` is (B,T,D) with B, T >= 1;
    ``audio`` and ``landmarks`` are optional parallel (B,T,*) arrays.
    ``index`` (see :func:`pack_rows`) orders the forward pass's outputs."""

    features: np.ndarray
    audio: Optional[np.ndarray] = None
    landmarks: Optional[np.ndarray] = None
    index: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 3:
            raise ShapeMismatch(f"features must be (B,T,D), got {self.features.shape}")
        b, t = self.features.shape[:2]
        if b == 0 or t == 0:
            raise EmptySequence(f"batch needs B >= 1 and T >= 1, got {self.features.shape}")
        for name in ("audio", "landmarks"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim != 3 or arr.shape[:2] != (b, t):
                raise ShapeMismatch(f"{name} shape {arr.shape} does not match (B,T,*)")
            setattr(self, name, arr)

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def seq_len(self) -> int:
        return self.features.shape[1]


def sequence_keys(
    sequence_ids: Sequence[Optional[str]], frame_indices: Sequence[Optional[int]]
) -> Optional[np.ndarray]:
    """The (N, 2) packing keys of N rows, or None when no row names a
    sequence, so that every row is a sequence of its own.

    Column 0 names each row's sequence: the first row holding its
    sequence id, or the row itself when it has none. Column 1 is the row's
    place in frame order: by ``frame_index``, a row without one before the
    indexed rows, and ties in row order.
    """
    if all(s is None for s in sequence_ids):
        return None
    first: Dict[str, int] = {}
    codes = [r if s is None else first.setdefault(s, r) for r, s in enumerate(sequence_ids)]
    frame = list(frame_indices)
    order = sorted(range(len(codes)), key=lambda r: (frame[r] is not None, frame[r] or 0))
    rank = np.empty(len(codes), dtype=np.int64)
    rank[order] = np.arange(len(codes))
    return np.column_stack([np.asarray(codes, dtype=np.int64), rank])


def pack_rows(features: np.ndarray, keys: Optional[np.ndarray] = None) -> SequenceBatch:
    """N rows as one right-padded (B, T, D) batch of sequences, whose
    ``index`` takes the forward pass's time-major output rows back to row
    order (None when that is the identity).

    Rows with the same ``keys[:, 0]`` form one sequence, its frames
    ordered by ``keys[:, 1]``; sequences keep the order in which they first
    appear. Without keys, or when no two rows share a sequence, the batch
    is (N, 1, D) in row order. Padding frames are zero; a GRU is causal,
    so they change no output at a real frame.
    """
    if keys is not None:
        _, first, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
        slot = np.argsort(np.argsort(first))[inverse]  # sequences by first appearance
        counts = np.bincount(slot)
        if counts.max() > 1:
            order = np.lexsort((keys[:, 1], slot))
            b = slot[order]
            t = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
            index = np.empty_like(order)
            index[order] = t * counts.size + b
            packed = np.zeros((counts.size, counts.max(), features.shape[1]))
            packed[b, t] = features[order]
            return SequenceBatch(packed, index=index)
    return SequenceBatch(features[:, None])


class _Trunk:
    """Backbone + taps + optional recurrence for one (sub)spec.

    Makes its parameters with ``param`` in a fixed order, each named under
    ``prefix``, so a seed or a checkpoint fully determines them.
    """

    def __init__(self, spec: ModelSpec, dims: InputDims, param: ad.Parameters, prefix: str):
        spec.validate()
        if spec.streams == 2 and dims.audio < 1:
            raise InvalidSpec("two-stream spec needs audio feature dims")
        if spec.landmark_concat and dims.landmarks < 1:
            raise InvalidSpec("landmark_concat needs landmark dims")
        self.spec = spec
        stream_inputs = [dims.features, dims.audio][: spec.streams]
        self.layers: List[List[Tuple[DiffTensor, DiffTensor]]] = []
        for s, d_in in enumerate(stream_inputs):
            ins, name = (d_in, *spec.backbone), f"{prefix}backbone.s{s}.l"
            self.layers.append([
                (param(f"{name}{i}.w", (ins[i], width)), param(f"{name}{i}.b", (width,)))
                for i, width in enumerate(spec.backbone)
            ])

        self._tap_set = set(spec.taps)
        if spec.taps:
            tap_widths = [spec.backbone[i] * spec.streams for i in spec.taps]
        else:
            per_stream = [spec.backbone[-1]] * spec.streams if spec.backbone else stream_inputs
            tap_widths = [sum(per_stream)]
        if spec.landmark_concat:
            tap_widths[-1] += dims.landmarks

        rec = spec.recurrent
        rec_in = [] if rec is None else [sum(tap_widths)] if rec.kind == "single" else tap_widths
        self.branches: List[List[GruCell]] = [
            [
                GruCell(rec.hidden if k else d, rec.hidden, param, f"{prefix}recurrent.b{j}.l{k}")
                for k in range(rec.layers)
            ]
            for j, d in enumerate(rec_in)
        ]
        self.out_width = sum(tap_widths) if rec is None else rec.hidden * len(rec_in)

    def forward(self, xs, lmk, b_size, t_len, train, rng) -> DiffTensor:
        """Run the trunk once over time-major (T*B, d) rows."""
        spec = self.spec
        tap_outs: List[List[DiffTensor]] = []
        for s, h in enumerate(xs):
            outs = []
            for i, (w, b) in enumerate(self.layers[s]):
                h = ad.dropout(ad.relu(ad.dense(h, w, b)), spec.dropout, train, rng)
                if i in self._tap_set:
                    outs.append(h)
            tap_outs.append(outs or [h])
        fused = [_cat(list(streams)) for streams in zip(*tap_outs)]
        if spec.landmark_concat:
            fused[-1] = ad.concat([fused[-1], lmk], axis=1)
        if spec.recurrent is None:
            return _cat(fused)
        branch_ins = [_cat(fused)] if spec.recurrent.kind == "single" else fused
        return _cat([
            _recur(stack, ad.dropout(x, spec.recurrent_dropout, train, rng), b_size, t_len)
            for stack, x in zip(self.branches, branch_ins)
        ])


def _cat(tensors: List[DiffTensor], axis: int = 1) -> DiffTensor:
    return ad.concat(tensors, axis=axis) if len(tensors) != 1 else tensors[0]


def _recur(cells: List[GruCell], x: DiffTensor, b_size: int, t_len: int) -> DiffTensor:
    """Run a GRU stack over time-major rows, one fused node per layer."""
    for cell in cells:
        x = ad.gru_sequence(cell, x, b_size, t_len)
    return x


class Model:
    """A built, parameterized instance of a ModelSpec: drawn from ``seed``,
    or adopting ``values`` (a checkpoint's arrays by name), which must name
    every parameter and no other, each in its shape (else BadCheckpoint)."""

    def __init__(
        self,
        spec: ModelSpec,
        dims: InputDims,
        seed: int,
        values: Optional[Dict[str, np.ndarray]] = None,
    ):
        spec.validate()
        self.spec = spec
        self.dims = dims
        param = ad.Parameters(seed, values)

        if spec.members is not None:
            self.trunks = [
                _Trunk(m, dims, param, f"member{i}.") for i, m in enumerate(spec.members)
            ]
            member_width = sum(t.out_width for t in self.trunks)
            width = spec.fusion_width
            if spec.fusion == "fc":
                self.fusion_layer: object = (
                    "fc", param("fusion.w", (member_width, width)), param("fusion.b", (width,))
                )
            else:
                self.fusion_layer = ("rnn", GruCell(member_width, width, param, "fusion"))
            trunk_out = width
        else:
            self.trunks = [_Trunk(spec, dims, param, "")]
            self.fusion_layer = None
            trunk_out = self.trunks[0].out_width

        self.trunk_width = trunk_out
        self.heads: Dict[str, Tuple[DiffTensor, DiffTensor]] = {}
        for name in HEAD_NAMES:
            if name not in spec.heads:
                continue
            width = _HEAD_WIDTHS.get(name, spec.compound_classes)
            key = f"head.{name.lower()}"
            self.heads[name] = (param(f"{key}.w", (trunk_out, width)), param(f"{key}.b", (width,)))
        param.check()
        self._params = param.named

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> Dict[str, DiffTensor]:
        return dict(self._params)

    def parameters(self) -> List[DiffTensor]:
        return list(self._params.values())

    def head_parameters(self) -> List[DiffTensor]:
        return [p for n, p in self._params.items() if n.startswith("head.")]

    # -- execution ----------------------------------------------------------

    def _check_batch(self, batch: SequenceBatch) -> None:
        specs = self.spec.members if self.spec.members is not None else (self.spec,)
        if batch.features.shape[2] != self.dims.features:
            raise ShapeMismatch(
                f"features dim {batch.features.shape[2]}, model expects {self.dims.features}"
            )
        if any(s.streams == 2 for s in specs):
            if batch.audio is None:
                raise ShapeMismatch("two-stream model needs audio features")
            if batch.audio.shape[2] != self.dims.audio:
                raise ShapeMismatch(
                    f"audio dim {batch.audio.shape[2]}, model expects {self.dims.audio}"
                )
        if any(s.landmark_concat for s in specs):
            if batch.landmarks is None:
                raise ShapeMismatch("landmark_concat model needs landmark features")
            if batch.landmarks.shape[2] != self.dims.landmarks:
                raise ShapeMismatch(
                    f"landmark dim {batch.landmarks.shape[2]}, model expects {self.dims.landmarks}"
                )

    def forward(
        self,
        batch: SequenceBatch,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> BatchPredictions:
        """Run all frames; returns head outputs in row order (without ``index``, t*B + b)."""
        self._check_batch(batch)
        b_size, t_len = batch.batch_size, batch.seq_len

        def rows(arr):
            if arr is None:
                return None
            return DiffTensor(arr.transpose(1, 0, 2).reshape(t_len * b_size, arr.shape[2]))

        feats, audio, lmk = rows(batch.features), rows(batch.audio), rows(batch.landmarks)
        feat = _cat([
            trunk.forward([feats, audio][: trunk.spec.streams], lmk, b_size, t_len, train, rng)
            for trunk in self.trunks
        ])
        if self.fusion_layer is not None:
            if self.fusion_layer[0] == "fc":
                _, w, b = self.fusion_layer
                feat = ad.relu(ad.dense(feat, w, b))
            else:
                feat = _recur([self.fusion_layer[1]], feat, b_size, t_len)
        out = {name: ad.dense(feat, w, b) for name, (w, b) in self.heads.items()}
        if batch.index is not None:
            out = {name: ad.take_rows(head, batch.index) for name, head in out.items()}
        return BatchPredictions(
            expr_logits=out.get("EXPR"),
            au_logits=out.get("AU"),
            va=out.get("VA"),
            compound_logits=out.get("COMPOUND"),
        )


def outputs(preds: BatchPredictions) -> Dict[str, Optional[np.ndarray]]:
    """A forward pass's ``va`` values and ``expr``, ``au`` and ``compound``
    probabilities, each None for a head the model lacks."""
    expr, au, compound = preds.expr_logits, preds.au_logits, preds.compound_logits
    return {
        "va": None if preds.va is None else preds.va.data,
        "expr": None if expr is None else softmax_parts(expr.data)[2],
        "au": None if au is None else ad.sigmoid_values(au.data),
        "compound": None if compound is None else softmax_parts(compound.data)[2],
    }


@dataclass
class SequencePrediction:
    """Per-frame outputs for one sequence plus the per-dimension VA median."""

    va: Optional[np.ndarray]  # (T,2)
    expr_probs: Optional[np.ndarray]  # (T,7)
    au_probs: Optional[np.ndarray]  # (T,17)
    va_median: Optional[np.ndarray]  # (2,)


def predict_sequence(
    model: Model,
    frames: np.ndarray,
    audio: Optional[np.ndarray] = None,
    landmarks: Optional[np.ndarray] = None,
) -> SequencePrediction:
    """Evaluate one sequence of frames; VA estimates are summarized by their
    per-dimension median (even counts use the mean of the middle two)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise EmptySequence(f"frames must be nonempty (T,D), got {frames.shape}")
    streams = (None if a is None else np.asarray(a)[None] for a in (audio, landmarks))
    out = outputs(model.forward(SequenceBatch(frames[None], *streams)))
    va = out["va"]
    median = None if va is None else np.median(va, axis=0)
    return SequencePrediction(va, out["expr"], out["au"], median)


def load_parameters(model: Model, values: Dict[str, np.ndarray]):
    """Copy checkpoint arrays into the model's parameters they name, in
    place; the others keep their values (a trunk transferred under a new
    head). A shape mismatch raises BadCheckpoint. Returns (loaded, skipped)
    names. ``Model(..., values=...)`` loads a whole checkpoint.
    """
    params = model.named_parameters()
    loaded, skipped = [], []
    for name, p in params.items():
        if name not in values:
            skipped.append(name)
            continue
        arr = np.asarray(values[name], dtype=np.float64)
        if arr.shape != p.data.shape:
            raise BadCheckpoint(
                f"{name}: checkpoint shape {arr.shape} vs model {p.data.shape}"
            )
        p.data[...] = arr  # in place: an optimizer may hold a view of it
        loaded.append(name)
    return loaded, skipped
