"""Span tracing for the benchmark, installed from outside the program.

The tracer wraps the callables each layer exposes, at the name its caller
resolves (``harness.training.backward`` rather than only
``autodiff.backward``), records one span per call in memory, and restores
every original attribute afterwards. The program's own code is never
edited, so a traced run computes exactly what an untraced run computes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from affectkit import autodiff, fusion, models, preprocess, relatedness, zeroshot
from affectkit.harness import dataio, evaluate, training

# Metric functions that ``harness.evaluate`` imported into its namespace.
_EVALUATE_METRICS = (
    "accuracy",
    "binarize",
    "ccc",
    "confusion_matrix",
    "e_total_au",
    "e_total_expr",
    "f1_binary",
    "macro_f1",
    "mean_diagonal",
    "mse",
)

LAYERS = (
    "dataio",
    "training",
    "sampler",
    "models",
    "autodiff",
    "losses",
    "relatedness",
    "evaluate",
    "metrics",
    "fusion",
    "zeroshot",
    "preprocess",
)


@dataclasses.dataclass(frozen=True)
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    raised: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


# Wrapped without a span: node construction runs hundreds of times per
# step and candidate scoring 11 times per record, so only calls are counted.
COUNT_ONLY = ("autodiff.nodes", "zeroshot.score_calls")


# (owner, attribute, span or count name, layer)
def _targets() -> List[Tuple[object, str, str, str]]:
    t: List[Tuple[object, str, str, str]] = [
        (dataio, "load_dataset", "dataio.load_dataset", "dataio"),
        (training, "load_dataset", "dataio.load_dataset", "dataio"),
        (dataio, "write_predictions", "dataio.write_predictions", "dataio"),
        (training, "train_run", "training.train_run", "training"),
        (training, "load_model", "training.load_model", "training"),
        (models.Model, "forward", "models.Model.forward", "models"),
        (models, "predict_sequence", "models.predict_sequence", "models"),
        (models, "expr_probs", "models.expr_probs", "models"),
        (training, "expr_probs", "models.expr_probs", "models"),
        (evaluate, "expr_probs", "models.expr_probs", "models"),
        (models, "au_probs", "models.au_probs", "models"),
        (training, "au_probs", "models.au_probs", "models"),
        (evaluate, "au_probs", "models.au_probs", "models"),
        (training, "backward", "autodiff.backward", "autodiff"),
        (autodiff.Adam, "step", "autodiff.Adam.step", "autodiff"),
        (autodiff, "gru_step", "autodiff.gru_step", "autodiff"),
        (training, "save_checkpoint", "autodiff.save_checkpoint", "autodiff"),
        (training, "load_checkpoint", "autodiff.load_checkpoint", "autodiff"),
        (autodiff.DiffTensor, "__init__", "autodiff.nodes", "autodiff"),
        (training, "multitask_loss", "losses.multitask_loss", "losses"),
        (training, "soft_target_cce", "losses.soft_target_cce", "losses"),
        (
            training,
            "distribution_matching_loss",
            "losses.distribution_matching_loss",
            "losses",
        ),
        (
            relatedness.RelatednessTable,
            "conditional_matrix",
            "relatedness.conditional_matrix",
            "relatedness",
        ),
        (training, "soft_coannotate", "relatedness.soft_coannotate", "relatedness"),
        (training, "epoch_iterator", "sampler.epoch_iterator.next", "sampler"),
        (evaluate, "evaluate_model", "evaluate.evaluate_model", "evaluate"),
        (training, "evaluate_model", "evaluate.evaluate_model", "evaluate"),
        (fusion, "decision_level_fuse", "fusion.decision_level_fuse", "fusion"),
        (fusion, "median_filter", "fusion.median_filter", "fusion"),
        (fusion, "smooth", "fusion.smooth", "fusion"),
        (zeroshot, "classify_compound", "zeroshot.classify_compound", "zeroshot"),
        (zeroshot, "candidate_score", "zeroshot.score_calls", "zeroshot"),
        (preprocess, "fit_alignment", "preprocess.fit_alignment", "preprocess"),
        (preprocess, "apply_alignment", "preprocess.apply_alignment", "preprocess"),
        (preprocess, "spectrogram", "preprocess.spectrogram", "preprocess"),
    ]
    t += [(evaluate, n, f"metrics.{n}", "metrics") for n in _EVALUATE_METRICS]
    return t


class Tracer:
    """In-memory span recorder with install/restore of layer wrappers.

    ``phase`` names the benchmark phase the current operation belongs to
    (``setup``, ``train``, ``score``, ``serve``); counts are kept per
    phase. Inside a training phase the first ``Model.forward`` switches the
    phase to ``train_loop``, so per-step counts exclude the set-up that
    precedes the loop.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.phase = "-"
        self.run_id = "-"
        self._stack: List[int] = []
        self._next_sid = 0
        self._saved: List[Tuple[object, str, bool, object]] = []
        # targets the program no longer exposes; reported, not fatal
        self.missing: List[str] = []

    # -- recording ------------------------------------------------------

    def _open(self) -> Tuple[int, Optional[int], float]:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, start, name, layer, raised) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, name, layer, start, end, parent, self.run_id, raised))

    def record(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; count it as a ``layer`` error if it raises."""
        sid, parent, start = self._open()
        raised = False
        try:
            return fn(*args, **kwargs)
        except Exception:
            raised = True
            self.errors[layer] += 1
            raise
        finally:
            self._close(sid, parent, start, name, layer, raised)

    def operation(self, phase: str, run_id: str, fn: Callable, *args, **kwargs):
        """Run one benchmark operation as a root span named ``bench.<phase>``."""
        self.phase = phase
        self.run_id = run_id
        try:
            return self.record(f"bench.{phase}", "bench", fn, *args, **kwargs)
        finally:
            self.phase = "-"
            self.run_id = "-"

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        tracer = self

        if name == "sampler.epoch_iterator.next":

            @functools.wraps(fn)
            def traced_iter(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, parent, start = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(sid, parent, start, name, layer, False)
                        return
                    except Exception:
                        tracer.errors[layer] += 1
                        tracer._close(sid, parent, start, name, layer, True)
                        raise
                    tracer._close(sid, parent, start, name, layer, False)
                    tracer.counts[(tracer.phase, "sampler.batches")] += 1
                    yield item

            return traced_iter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[(tracer.phase, name)] += 1
            if name == "models.Model.forward" and tracer.phase == "train":
                tracer.phase = "train_loop"
            return tracer.record(name, layer, fn, *args, **kwargs)

        return traced

    def _count_wrapper(self, fn, key):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(tracer.phase, key)] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._saved.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, layer in _targets():
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            elif name in COUNT_ONLY:
                self._patch(owner, attr, self._count_wrapper(original, name))
            else:
                self._patch(owner, attr, self._span_wrapper(original, name, layer))

    def restore(self) -> None:
        """Put back every original attribute, in reverse order of patching."""
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def patch_targets() -> List[Tuple[object, str]]:
    """Every (owner, attribute) the tracer replaces while installed."""
    return [(o, a) for o, a, _, _ in _targets()]


# -- per-layer metrics ----------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the time its direct child spans cover."""
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.sid: s.duration - child_time[s.sid] for s in spans}


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_metrics(tracer: Tracer, n_eval_samples: int,
                  untraced_s: float, traced_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one traced pass over every phase.

    Run ids read ``<phase>-<n>``. ``n_eval_samples`` is the number of
    (sample, member) rows the score phase pushed through a model. Timings
    are self times, except ``models.predict_ms_per_request``, which is the
    whole ``predict_sequence`` call.
    """
    spans = tracer.spans
    selfs = self_times(spans)

    def phase(s: Span) -> str:
        return s.run_id.rsplit("-", 1)[0]

    def total_self(names, phases) -> float:
        names = (names,) if isinstance(names, str) else names
        phases = (phases,) if isinstance(phases, str) else phases
        return sum(selfs[s.sid] for s in spans if s.name in names and phase(s) in phases)

    def calls(name, phases) -> int:
        phases = (phases,) if isinstance(phases, str) else phases
        return sum(1 for s in spans if s.name == name and phase(s) in phases)

    def count(key, phases) -> int:
        phases = (phases,) if isinstance(phases, str) else phases
        return sum(tracer.counts[(p, key)] for p in phases)

    train = ("train", "train_loop")
    steps = calls("autodiff.Adam.step", "train")
    requests = calls("bench.serve", "serve")

    # The training loop starts at the first forward inside each train_run.
    pre_loop = 0.0
    loop_self = 0.0
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for run in (s for s in spans if s.name == "training.train_run" and phase(s) == "train"):
        first = _first_descendant(run, children, "models.Model.forward")
        if first is None:
            continue
        pre_loop += first.start - run.start
        covered = sum(c.duration for c in children[run.sid] if c.start >= first.start)
        loop_self += (run.end - first.start) - covered

    ms = 1000.0
    m: Dict[str, Tuple[float, str]] = {
        "dataio.load_s": (total_self("dataio.load_dataset", "setup"), "s"),
        "dataio.write_s": (total_self("dataio.write_predictions", "score"), "s"),
        "training.pre_loop_s": (pre_loop, "s"),
        "training.self_ms_per_step": (_per(loop_self * ms, steps), "ms"),
        "sampler.next_ms_per_step": (
            _per(total_self("sampler.epoch_iterator.next", train) * ms, steps), "ms"),
        "sampler.batches": (float(count("sampler.batches", train)), "count"),
        "models.forward_ms_per_step": (
            _per(total_self("models.Model.forward", train) * ms, steps), "ms"),
        "models.forward_calls": (
            float(sum(1 for s in spans if s.name == "models.Model.forward")), "count"),
        "models.expr_probs_calls_per_step": (
            _per(count("models.expr_probs", "train_loop"), steps), "count"),
        "models.predict_ms_per_request": (
            _per(sum(s.duration for s in spans
                     if s.name == "models.predict_sequence" and phase(s) == "serve") * ms,
                 requests), "ms"),
        "autodiff.nodes_per_step": (_per(count("autodiff.nodes", "train_loop"), steps), "count"),
        "autodiff.nodes_per_eval_sample": (
            _per(count("autodiff.nodes", "score"), n_eval_samples), "count"),
        "autodiff.backward_ms_per_step": (
            _per(total_self("autodiff.backward", train) * ms, steps), "ms"),
        "autodiff.adam_ms_per_step": (
            _per(total_self("autodiff.Adam.step", train) * ms, steps), "ms"),
        "autodiff.gru_step_ms_per_step": (
            _per(total_self("autodiff.gru_step", train) * ms, steps), "ms"),
        "autodiff.gru_step_calls": (float(calls("autodiff.gru_step", "train")), "count"),
        "autodiff.checkpoint_s": (
            sum(selfs[s.sid] for s in spans
                if s.name in ("autodiff.save_checkpoint", "autodiff.load_checkpoint")), "s"),
        "losses.multitask_ms_per_step": (
            _per(total_self("losses.multitask_loss", train) * ms, steps), "ms"),
        "losses.soft_target_ms_per_step": (
            _per(total_self("losses.soft_target_cce", train) * ms, steps), "ms"),
        "losses.distribution_matching_ms_per_step": (
            _per(total_self("losses.distribution_matching_loss", train) * ms, steps), "ms"),
        "relatedness.conditional_matrix_calls_per_step": (
            _per(count("relatedness.conditional_matrix", "train_loop"), steps), "count"),
        "relatedness.soft_coannotate_s": (
            total_self("relatedness.soft_coannotate", "setup"), "s"),
        "evaluate.self_s": (total_self("evaluate.evaluate_model", "score"), "s"),
        "metrics.s": (
            total_self(tuple(f"metrics.{n}" for n in _EVALUATE_METRICS), "score"), "s"),
        "fusion.fuse_s": (total_self("fusion.decision_level_fuse", "score"), "s"),
        "fusion.smooth_s": (total_self(("fusion.median_filter", "fusion.smooth"), "score"), "s"),
        "zeroshot.classify_s": (total_self("zeroshot.classify_compound", "score"), "s"),
        "zeroshot.score_calls": (float(count("zeroshot.score_calls", "score")), "count"),
        "preprocess.align_ms_per_request": (
            _per(total_self(("preprocess.fit_alignment", "preprocess.apply_alignment"),
                            "serve") * ms, requests), "ms"),
        "preprocess.spectrogram_ms_per_request": (
            _per(total_self("preprocess.spectrogram", "serve") * ms, requests), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(tracer.errors[layer]), "count")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_ratio"] = (_per(traced_s - untraced_s, untraced_s), "ratio")
    return {k: (float(v), unit) for k, (v, unit) in m.items()}


def _first_descendant(root: Span, children, name: str) -> Optional[Span]:
    best = None
    todo = list(children[root.sid])
    while todo:
        s = todo.pop()
        if s.name == name and (best is None or s.start < best.start):
            best = s
        todo.extend(children[s.sid])
    return best
