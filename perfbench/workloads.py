"""The benchmark's workloads: inputs made from a seed, the phases each
workload runs, and the correctness checks on every operation.

Every workload is one user's session, run closed-loop by a single client:

* ``train``  - full ``train_run`` jobs (one per ensemble member);
* ``setup``  - what the session pays before it can work: ``train_run``
  with ``epochs = 0`` for training workloads, ``load_dataset`` plus
  ``load_model`` for scoring workloads;
* ``score``  - the bulk scoring pass: ``evaluate_model`` per member,
  decision-level VA fusion, temporal smoothing, zero-shot compound
  classification and ``write_predictions``;
* ``serve``  - back-to-back ``predict_sequence`` requests on short clips.

Workloads differ in the model, the data pools and how the measuring time
is shared among the phases, so each stresses a different layer mix. The
program is driven only through its public functions, always resolved as
module attributes at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from affectkit import autodiff, fusion, models, preprocess, zeroshot
from affectkit.harness import dataio, evaluate, synth, training
from affectkit.harness.config import RunConfig
from affectkit.types import PredictionRecord

FEATURE_DIM = 16
# Acceptance criterion 5's study settings.
STUDY_SETTINGS = dict(
    feature_dim=FEATURE_DIM, lr=1e-2, lr_decay=0.9, lr_decay_start=20, total_batch=60
)
# The program's default spectrogram: 44.1 kHz, 33 ms windows with 11 ms
# overlap, so 1455-sample frames every 970 samples, a 2048-point DFT and
# 1025 bins. A request's audio covers exactly its k frames, one spectrogram
# frame per visual frame, because the model takes parallel (B,T,*) streams.
SPECTROGRAM = preprocess.SpectrogramConfig()
AUDIO_DIM = SPECTROGRAM.fft_size // 2 + 1
LANDMARK_DIM = 10
CLIP_FRAMES = (1, 8)  # request clip length k, inclusive range
REQUEST_POOL = 256
REPEAT_EVERY = 16  # every 16th request is sent twice and must match
SMOOTH_WINDOW = 50  # fused VA is smoothed over fixed 50-frame windows
MEDIAN_WINDOW = 5
SMOOTH_ALPHA = 0.5
PHASES = ("train", "setup", "score", "serve")
PROB_SUM_TOL = 1e-12
FUSE_TOL = 1e-12


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    train_counts: Tuple[int, int, int]  # (va, au, expr) pools
    val_counts: Tuple[int, int, int]
    # None: the validation split is the held-out set
    heldout_counts: Optional[Tuple[int, int, int]]
    config: Dict[str, object]
    epochs: int
    # share of --seconds given to the train, score and serve phases
    shares: Tuple[float, float, float]
    members: int = 1
    setup: str = "train_run"  # train_run | load_members | load_server
    serve_stream: bool = False


_COUPLED = dict(backbone=(48,), coupling="soft+distr", heads=("EXPR", "AU", "VA"))

# Epoch counts are far below criterion 5's 30 (900 steps) so that one run
# holds several whole train_run jobs; a job's fixed costs (CSV load, pools,
# soft co-annotation, checkpoint write) therefore weigh more in
# train_samples_per_s, and lr_decay_start = 20 is never reached.

WORKLOADS: Dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            name="train_coupled",
            why="criterion-5 coupled job cut to 3 epochs: per-frame forward, ~740-node loss and "
            "backward graph, both coupling terms; not GRU or preprocess. final_loss may move "
            "by rounding only",
            train_counts=(600, 600, 600),
            val_counts=(200, 200, 200),
            heldout_counts=None,
            config=_COUPLED,
            epochs=3,
            shares=(0.7, 0.15, 0.15),
        ),
        WorkloadSpec(
            name="train_recurrent",
            why="GRU time loop, ~2100 autodiff nodes per step, sampler over 4:1:10 pools; no "
            "coupling, so forward batching and loss fusion barely move it. final_loss may "
            "move by rounding only",
            train_counts=(480, 120, 1200),
            val_counts=(200, 200, 200),
            heldout_counts=None,
            config=dict(
                backbone=(48, 24),
                taps=(0, 1),
                recurrent="single:16x1",
                dropout=0.1,
                coupling="none",
            ),
            epochs=1,
            shares=(0.7, 0.15, 0.15),
        ),
        WorkloadSpec(
            name="eval_bulk",
            why="read path: two members score a held-out set 3x the training size, then fusion, "
            "smoothing, zero-shot and file output; little loss, backward or sampler work. "
            "final_loss may move by rounding only",
            train_counts=(400, 400, 400),
            val_counts=(150, 150, 150),
            heldout_counts=(1200, 1200, 1200),
            config=_COUPLED,
            epochs=2,
            shares=(0.2, 0.6, 0.2),
            members=2,
            setup="load_members",
        ),
        WorkloadSpec(
            name="stream_predict",
            why="one client sends 1-8 frame clips: alignment, 44.1 kHz spectrogram, two-stream "
            "landmark forward, per-call fixed cost; little training work. final_loss may move "
            "by rounding only",
            train_counts=(300, 300, 300),
            val_counts=(200, 200, 200),
            heldout_counts=None,
            config=dict(backbone=(48,), coupling="none", heads=("EXPR", "AU", "VA")),
            epochs=4,
            shares=(0.2, 0.15, 0.65),
            setup="load_server",
            serve_stream=True,
        ),
    )
}


def _scaled(counts: Tuple[int, int, int], scale: float) -> Tuple[int, int, int]:
    return tuple(max(20, int(round(c * scale))) for c in counts)


@dataclass
class Request:
    frames: np.ndarray  # (k, FEATURE_DIM)
    landmarks: Optional[List[preprocess.LandmarkSet]] = None  # one set per frame
    audio: Optional[np.ndarray] = None  # samples covering the k frames


def _make_requests(seed: int, n: int, stream: bool) -> List[Request]:
    """``n`` requests. Clip lengths run through every k in CLIP_FRAMES once
    per block, in an order drawn from the seed, so every seed sends the same
    mix of lengths and latency percentiles do not move with the seed."""
    rng = np.random.default_rng([seed, 3])
    canonical = preprocess.CANONICAL_LANDMARKS.as_array()
    lengths = np.arange(CLIP_FRAMES[0], CLIP_FRAMES[1] + 1)
    ks = np.concatenate([rng.permutation(lengths) for _ in range(-(-n // len(lengths)))])
    out = []
    for k in map(int, ks[:n]):
        frames = rng.normal(0.0, 0.2, size=(k, FEATURE_DIM))
        frames[np.arange(k), rng.integers(0, 7, size=k)] += 1.0
        if not stream:
            out.append(Request(frames=frames))
            continue
        landmarks = []
        for _ in range(k):
            # a detected face: scaled, rotated, shifted template plus jitter
            angle = rng.normal(0.0, 0.15)
            scale = rng.uniform(0.8, 1.3)
            rot = scale * np.array(
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            )
            pts = canonical @ rot.T + rng.uniform(-10, 10, size=2)
            pts += rng.normal(0.0, 0.8, size=pts.shape)
            landmarks.append(preprocess.LandmarkSet(points=tuple(map(tuple, pts))))
        n_audio = SPECTROGRAM.window_samples + (k - 1) * SPECTROGRAM.hop_samples
        audio = rng.normal(0.0, 0.3, size=n_audio)
        out.append(Request(frames=frames, landmarks=landmarks, audio=audio))
    return out


def tail_percentile(values: List[float]) -> Tuple[float, float]:
    """(q, value): p99 when at least 10 samples lie beyond it, otherwise the
    highest percentile that still has 10 beyond it (nearest rank)."""
    n = len(values)
    q = min(0.99, max(0.5, 1.0 - 10.0 / n))
    rank = int(math.ceil(q * n))
    return q, float(sorted(values)[rank - 1])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)


class Session:
    """One workload run: its inputs, models and the operations on them."""

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: str, scale: float = 1.0):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.tracer = None  # a tracing.Tracer while a traced pass runs
        self.tally = Tally()
        self.member_configs: List[RunConfig] = []
        self.trained: List[Optional[training.TrainResult]] = []
        self.first_history: Dict[int, List[Dict[str, float]]] = {}
        self.final_losses: List[float] = []
        self.scoring_models: List[models.Model] = []
        self.weights: List[Tuple[float, float]] = []
        self.server = None
        self.server_config: Optional[RunConfig] = None
        self.server_ckpt = ""
        self.heldout = []
        self.val = []
        self.requests: List[Request] = []
        # phase -> measured values of its successful operations, and the
        # perf_counter time at the middle of each of those operations
        self.measured: Dict[str, List[float]] = {p: [] for p in PHASES}
        self.sampled_at: Dict[str, List[float]] = {p: [] for p in PHASES}
        self._op_mid = 0.0
        self._reps: Dict[str, int] = {p: 0 for p in PHASES}
        self._sends = 0  # serve operations, repeats included

    # -- inputs ---------------------------------------------------------

    def prepare(self) -> None:
        """Make every input from the seed; nothing here is timed."""
        spec, s = self.spec, self.seed
        data = os.path.join(self.workdir, "data")
        syn = synth.SyntheticSpec(
            train_counts=_scaled(spec.train_counts, self.scale),
            val_counts=_scaled(spec.val_counts, self.scale),
            feature_dim=FEATURE_DIM,
        )
        feats, ann = synth.generate_dataset(syn, seed=s, out_dir=data)
        self.val = dataio.load_dataset(ann, feats, split="val")
        self.n_train = sum(syn.train_counts)
        if spec.heldout_counts is None:
            self.heldout_paths = (ann, feats)
        else:
            held = synth.SyntheticSpec(
                train_counts=(0, 0, 0),
                val_counts=_scaled(spec.heldout_counts, self.scale),
                feature_dim=FEATURE_DIM,
            )
            hf, ha = synth.generate_dataset(held, seed=s + 7919,
                                            out_dir=os.path.join(self.workdir, "heldout"))
            self.heldout_paths = (ha, hf)
        self.heldout = dataio.load_dataset(*self.heldout_paths, split="val")

        for m in range(spec.members):
            self.member_configs.append(
                RunConfig(
                    seed=s * 16 + m,
                    epochs=spec.epochs,
                    train_annotations=ann,
                    train_features=feats,
                    out_dir=os.path.join(self.workdir, f"member{m}"),
                    **STUDY_SETTINGS,
                    **spec.config,
                )
            )
        self.trained = [None] * spec.members

        n_req = max(16, int(REQUEST_POOL * min(1.0, self.scale)))
        self.requests = _make_requests(s, n_req, spec.serve_stream)
        if spec.serve_stream:
            self.server_config = RunConfig(
                seed=s,
                feature_dim=FEATURE_DIM,
                audio_dim=AUDIO_DIM,
                landmark_dim=LANDMARK_DIM,
                streams=2,
                landmark_concat=True,
                backbone=(48,),
                heads=("EXPR", "AU", "VA"),
            )
            model = models.Model(
                self.server_config.model_spec(), self.server_config.input_dims(), seed=s
            )
            self.server_ckpt = os.path.join(self.workdir, "server.ckpt")
            autodiff.save_checkpoint(
                self.server_ckpt, {n: p.data for n, p in model.named_parameters().items()}
            )

    # -- operations -----------------------------------------------------

    def _op(self, phase: str, idx: int, fn: Callable, *args):
        """Run one operation; returns (result, seconds) or (None, None) if it raised."""
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.operation(phase, f"{phase}-{idx}", fn, *args)
            else:
                result = fn(*args)
        except Exception:
            self.tally.fail(f"{phase} #{idx} raised:\n{traceback.format_exc()}")
            return None, None
        end = time.perf_counter()
        self._op_mid = (start + end) / 2.0
        return result, end - start

    def _measure(self, phase: str, value: float) -> None:
        self.measured[phase].append(value)
        self.sampled_at[phase].append(self._op_mid)

    def _check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.tally.fail(what)
        return ok

    def _loop(self, phase: str, budget: float, min_reps: int, max_reps: int,
              body: Callable[[int], None]) -> None:
        """Call ``body`` with the phase's running repetition number until
        ``budget`` seconds have passed and at least ``min_reps`` ran."""
        start = time.perf_counter()
        done = 0
        while done < max_reps and (done < min_reps or time.perf_counter() - start < budget):
            body(self._reps[phase])
            self._reps[phase] += 1
            done += 1

    # -- train ----------------------------------------------------------

    def train(self, budget: float, min_reps: int, out_tag: str = "") -> None:
        """Full train_run jobs, members in turn; measures samples/s per job."""
        samples = self.n_train * self.spec.epochs

        def one(rep: int) -> None:
            m = rep % self.spec.members
            config = self.member_configs[m]
            if out_tag:
                config = config.override(out_dir=config.out_dir + out_tag)
            result, secs = self._op("train", rep, training.train_run, config)
            if result is None:
                return
            final = result.history[-1]["loss"] if result.history else float("nan")
            first = self.first_history.setdefault(m, result.history)
            if self._check(
                math.isfinite(final) and first == result.history,
                f"train #{rep}: final loss {final}, or a history that differs "
                f"from the first run of member {m}",
            ):
                self._measure("train", samples / secs)
                self.trained[m] = result

        self._loop("train", budget, min_reps, 10_000, one)
        self.final_losses = [h[-1]["loss"] for _, h in sorted(self.first_history.items())]

    def check_reload(self) -> None:
        """A reloaded checkpoint must reproduce the trained model exactly."""
        probe = models.SequenceBatch(
            features=np.stack([s.features for s in self.heldout[:64]])[None]
        )
        for m, result in enumerate(self.trained):
            if result is None:
                continue
            loaded, _ = self._op("reload", m, training.load_model,
                                 result.config, result.checkpoint_path)
            if loaded is None:
                continue
            a = result.model.forward(probe, train=False)
            b = loaded.forward(probe, train=False)
            same = all(
                (x is None and y is None) or np.array_equal(x.data, y.data)
                for x, y in ((a.va, b.va), (a.expr_logits, b.expr_logits),
                             (a.au_logits, b.au_logits))
            )
            self._check(same, f"member {m}: reloaded checkpoint predicts differently")

    def fusion_weights(self, members: List[models.Model]) -> None:
        """Validation concordance per member, floored so fusion weights stay
        positive for a member that has not learned VA yet."""
        self.weights = []
        for model in members:
            metrics, _ = evaluate.evaluate_model(model, self.val, tasks=["VA"])
            self.weights.append(
                (max(metrics["va.ccc_v"], 1e-3), max(metrics["va.ccc_a"], 1e-3))
            )

    # -- setup ----------------------------------------------------------

    def _setup_once(self):
        spec = self.spec
        if spec.setup == "train_run":
            config = self.member_configs[0]
            return training.train_run(
                config.override(epochs=0, out_dir=config.out_dir + "-setup")
            )
        if spec.setup == "load_members":
            heldout = dataio.load_dataset(*self.heldout_paths, split="val")
            loaded = [
                training.load_model(r.config, r.checkpoint_path) for r in self.trained
            ]
            return heldout, loaded
        return training.load_model(self.server_config, self.server_ckpt)

    def setup(self, budget: float, min_reps: int) -> None:
        """Repeated set-ups; measures seconds until the session can work."""

        def one(rep: int) -> None:
            result, secs = self._op("setup", rep, self._setup_once)
            if result is None:
                return
            self._measure("setup", secs)
            if self.spec.setup == "load_members":
                self.heldout, self.scoring_models = result
            elif self.spec.setup == "load_server":
                self.server = result

        self.scoring_models = [r.model for r in self.trained if r is not None]
        self._loop("setup", budget, min_reps, 10_000, one)

    # -- score ----------------------------------------------------------

    def _score_pass(self, out_path: str):
        per_member = [evaluate.evaluate_model(m, self.heldout)[1] for m in self.scoring_models]
        ensemble = [
            fusion.EnsembleMember(
                member_id=f"m{i}",
                val_ccc_v=w[0],
                val_ccc_a=w[1],
                predictions={r.id: (r.valence, r.arousal) for r in recs},
            )
            for i, (w, recs) in enumerate(zip(self.weights, per_member))
        ]
        fused = fusion.decision_level_fuse(ensemble)
        ids = [r.id for r in per_member[0]]
        va = np.array([fused[i] for i in ids])
        smoothed = np.empty_like(va)
        for start in range(0, len(ids), SMOOTH_WINDOW):
            for d in range(2):
                window = va[start : start + SMOOTH_WINDOW, d]
                smoothed[start : start + SMOOTH_WINDOW, d] = fusion.smooth(
                    fusion.median_filter(window, MEDIAN_WINDOW), SMOOTH_ALPHA
                )
        defs = zeroshot.default_compound_defs()
        records = []
        compounds = []
        for row, rid in enumerate(ids):
            rec = PredictionRecord(
                id=rid,
                valence=float(smoothed[row, 0]),
                arousal=float(smoothed[row, 1]),
                expr_probs=np.mean([recs[row].expr_probs for recs in per_member], axis=0),
                au_probs=np.mean([recs[row].au_probs for recs in per_member], axis=0),
            )
            compounds.append(zeroshot.classify_compound(defs, rec).name)
            records.append(rec)
        dataio.write_predictions(out_path, records)
        return per_member, fused, compounds

    def _check_score(self, rep: int, per_member, fused, compounds) -> bool:
        problems = []
        for m, recs in enumerate(per_member):
            sums = np.array([r.expr_probs.sum() for r in recs])
            if not np.all(np.abs(sums - 1.0) <= PROB_SUM_TOL):
                problems.append(f"member {m} expression rows do not sum to 1")
        row = int(np.random.default_rng([self.seed, 5]).integers(len(per_member[0])))
        rid = per_member[0][row].id
        wv = sum(w[0] for w in self.weights)
        wa = sum(w[1] for w in self.weights)
        hand_v = sum(w[0] * recs[row].valence for w, recs in zip(self.weights, per_member)) / wv
        hand_a = sum(w[1] * recs[row].arousal for w, recs in zip(self.weights, per_member)) / wa
        if abs(fused[rid][0] - hand_v) > FUSE_TOL or abs(fused[rid][1] - hand_a) > FUSE_TOL:
            problems.append(f"fused VA of {rid} is not the weighted member mean")
        if len(compounds) != len(self.heldout):
            problems.append(f"{len(compounds)} compound labels")
        return self._check(not problems, f"score #{rep}: " + "; ".join(problems))

    def score(self, budget: float, min_reps: int, out_tag: str = "") -> None:
        """Bulk scoring passes; measures held-out samples/s per pass."""
        out_path = os.path.join(self.workdir, f"predictions{out_tag}.csv")

        def one(rep: int) -> None:
            result, secs = self._op("score", rep, self._score_pass, out_path)
            if result is not None and self._check_score(rep, *result):
                self._measure("score", len(self.heldout) / secs)

        self._loop("score", budget, min_reps, 10_000, one)

    # -- serve ----------------------------------------------------------

    def _handle(self, req: Request):
        model = self.server if self.spec.serve_stream else self.scoring_models[0]
        if not self.spec.serve_stream:
            return models.predict_sequence(model, req.frames)
        aligned = []
        for lmk in req.landmarks:
            fit = preprocess.fit_alignment(lmk, preprocess.CANONICAL_LANDMARKS)
            aligned.append(preprocess.apply_alignment(fit, lmk.as_array()).ravel())
        audio = preprocess.spectrogram(req.audio, SPECTROGRAM)
        return models.predict_sequence(
            model, req.frames, audio=audio, landmarks=np.stack(aligned)
        )

    @staticmethod
    def _outputs(pred) -> List[np.ndarray]:
        return [a for a in (pred.va, pred.expr_probs, pred.au_probs, pred.va_median)
                if a is not None]

    def serve(self, budget: float, min_requests: int,
              max_requests: int = 1_000_000) -> None:
        """Closed-loop requests; measures per-request latency in ms."""

        def one(rep: int) -> None:
            req = self.requests[rep % len(self.requests)]
            sends = 2 if rep % REPEAT_EVERY == 0 else 1
            outs = []
            for _ in range(sends):
                pred, secs = self._op("serve", self._sends, self._handle, req)
                self._sends += 1
                if pred is None:
                    return
                out = self._outputs(pred)
                if not self._check(all(np.all(np.isfinite(a)) for a in out),
                                   f"serve #{self._sends - 1}: non-finite output"):
                    return
                self._measure("serve", secs * 1000.0)
                outs.append(out)
            if sends == 2:
                self._check(
                    all(np.array_equal(a, b) for a, b in zip(outs[0], outs[1])),
                    f"serve request {rep}: a repeated request gave different outputs",
                )

        self._loop("serve", budget, min_requests, max_requests, one)
