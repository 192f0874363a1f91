"""Command-line entry point.

Subcommands: gen-data, train, eval, fuse, zero-shot, align, spectrogram,
grad-check. Exit codes: 0 on success, 1 on a usage error, 2 on a runtime
failure. All randomness sits behind explicit seeds.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional

import numpy as np

from ..csvfile import atomic_write
from ..errors import (
    AffectKitError, ConfigError, DegenerateLandmarks, MissingAUPrediction, ValueOutOfRange
)
from ..fusion import EnsembleMember, decision_level_fuse, median_filter, read_manifest, smooth
from ..preprocess import (
    CANONICAL_LANDMARKS,
    LandmarkSet,
    SpectrogramConfig,
    fit_alignment,
    apply_alignment,
    read_audio,
    read_landmarks,
    spectrogram,
    write_landmarks,
)
from ..types import PredictionRecord
from ..zeroshot import classify_compound, default_compound_defs, load_compound_defs
from .checks import GRAD_TOLERANCE, CHECKS, run_grad_checks
from .config import RunConfig, parse_kv_file
from .dataio import (
    _csv_line,
    load_dataset,
    read_predictions,
    write_predictions,
    write_report,
)
from .evaluate import evaluate_model
from .synth import SyntheticSpec, generate_dataset
from .training import load_model, train_run


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _seed(value: str) -> int:
    if not (value.isascii() and value.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")
    return int(value)


def _counts(value: str):
    parts = tuple(int(v) for v in value.split(","))
    if len(parts) != 3 or min(parts) < 0:
        raise ValueError(f"expected three counts >= 0, got {value!r}")
    return parts


_SPEC_PARSERS = {
    "train_counts": _counts,
    "val_counts": _counts,
    "feature_dim": int,
    "sigma": float,
    "kappa": float,
    "table": str,
}


def _synthetic_spec(path: Optional[str]) -> SyntheticSpec:
    if path is None:
        return SyntheticSpec()
    values = parse_kv_file(path, _SPEC_PARSERS)
    try:
        return SyntheticSpec(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen_data(args) -> int:
    spec = _synthetic_spec(args.spec)
    features, annotations = generate_dataset(spec, args.seed, args.out)
    print(features)
    print(annotations)
    return 0


def _cmd_train(args) -> int:
    config = RunConfig.from_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.init_from is not None:
        overrides["init_from"] = args.init_from
    if args.freeze_trunk:
        overrides["freeze_trunk"] = True
    if args.heads is not None:
        overrides["heads"] = tuple(h.strip().upper() for h in args.heads.split(","))
    if overrides:
        config = config.override(**overrides)
    result = train_run(config)
    final = result.history[-1]["loss"] if result.history else float("nan")
    print(f"checkpoint {result.checkpoint_path}")
    print(f"log {result.log_path}")
    print(f"final_loss {final!r}")
    return 0


def _cmd_eval(args) -> int:
    config = RunConfig.from_file(args.config)
    if args.au_threshold is not None:
        config = config.override(au_threshold=args.au_threshold)
    data = load_dataset(args.annotations, args.features, split=args.split or None)
    data.check_feature_dim(config.feature_dim, args.features)
    model = load_model(config, args.checkpoint)
    tasks = None
    if args.tasks:
        tasks = [t.strip().upper() for t in args.tasks.split(",")]
    metrics, records = evaluate_model(
        model, data, au_threshold=config.au_threshold, tasks=tasks
    )
    write_report(args.out, metrics)
    if args.predictions:
        write_predictions(args.predictions, records)
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6f}")
    return 0


def _cmd_fuse(args) -> int:
    rows = read_manifest(args.manifest)
    members = []
    order: List[str] = []
    for member_id, ccc_v, ccc_a, path in rows:
        records = read_predictions(path)
        if not order:
            order = [r.id for r in records]
        members.append(
            EnsembleMember(
                member_id=member_id,
                val_ccc_v=ccc_v,
                val_ccc_a=ccc_a,
                predictions={r.id: (r.valence, r.arousal) for r in records},
            )
        )
    fused = decision_level_fuse(members)
    valence = np.array([fused[k][0] for k in order])
    arousal = np.array([fused[k][1] for k in order])
    if args.median_window is not None:
        valence = median_filter(valence, args.median_window)
        arousal = median_filter(arousal, args.median_window)
    if args.smooth_alpha is not None:
        valence = smooth(valence, args.smooth_alpha)
        arousal = smooth(arousal, args.smooth_alpha)
    write_predictions(
        args.out,
        [
            PredictionRecord(id=k, valence=float(v), arousal=float(a))
            for k, v, a in zip(order, valence, arousal)
        ],
    )
    print(args.out)
    return 0


def _cmd_zero_shot(args) -> int:
    defs = (
        load_compound_defs(args.defs) if args.defs else default_compound_defs()
    )
    # classify everything first so that a failing record leaves no file
    rows = []
    for record in read_predictions(args.predictions):
        try:
            rows.append((record.id, classify_compound(defs, record).name))
        except (MissingAUPrediction, ValueOutOfRange) as exc:
            raise type(exc)(f"{args.predictions}: {record.id}: {exc}") from exc
    with atomic_write(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(["id", "compound"]) + "\n")
        fh.writelines(_csv_line(row) + "\n" for row in rows)
    print(args.out)
    return 0


def _cmd_align(args) -> int:
    frames = read_landmarks(args.landmarks)
    canonical = CANONICAL_LANDMARKS
    if args.canonical:
        canonical_frames = read_landmarks(args.canonical)
        if not canonical_frames:
            raise ConfigError(f"{args.canonical}: no landmark rows")
        canonical = next(iter(canonical_frames.values()))
    aligned = {}
    residuals = []
    for frame, landmarks in sorted(frames.items()):
        try:
            fit = fit_alignment(landmarks, canonical)
        except DegenerateLandmarks as exc:
            raise DegenerateLandmarks(f"{args.landmarks}: frame {frame}: {exc}") from exc
        points = apply_alignment(fit, landmarks.as_array())
        aligned[frame] = LandmarkSet(points=tuple(map(tuple, points)))
        residuals.append(fit.residual)
    write_landmarks(args.out, aligned)
    print(f"frames {len(aligned)}")
    print(f"mean_residual {float(np.mean(residuals)) if residuals else 0.0!r}")
    return 0


def _cmd_spectrogram(args) -> int:
    rate, samples = read_audio(args.audio)
    config = SpectrogramConfig(
        sample_rate_hz=rate,
        window_ms=args.window_ms,
        overlap_ms=args.overlap_ms,
    )
    frames = spectrogram(samples, config)
    with atomic_write(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame"] + [f"bin{i}" for i in range(frames.shape[1])])
        for i, row in enumerate(frames):
            writer.writerow([i] + [repr(float(v)) for v in row])
    print(f"frames {frames.shape[0]}")
    print(f"bins {frames.shape[1]}")
    return 0


def _cmd_grad_check(args) -> int:
    names = None if args.all or not args.checks else args.checks
    results = run_grad_checks(names, n_points=args.points, seed=args.seed)
    ok = True
    for name in sorted(results):
        err = results[name]
        status = "ok" if err < GRAD_TOLERANCE else "FAIL"
        ok = ok and err < GRAD_TOLERANCE
        print(f"{name} max_rel_err={err:.3e} {status}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affectkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--spec", help="key=value file with generator settings")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out-dir")
    p.add_argument("--epochs", type=int)
    p.add_argument("--init-from", help="checkpoint to initialize from")
    p.add_argument("--freeze-trunk", action="store_true")
    p.add_argument("--heads", help="comma list overriding the config heads")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", default="")
    p.add_argument("--tasks", help="comma list; default: all tasks present")
    p.add_argument("--au-threshold", type=float, help="default: the config's au_threshold")
    p.add_argument("--out", required=True, help="metric report file")
    p.add_argument("--predictions", help="optional predictions CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fuse", help="weighted decision-level ensemble fusion")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--median-window", type=int)
    p.add_argument("--smooth-alpha", type=float)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("zero-shot", help="compound classes from basic predictions")
    p.add_argument("--predictions", required=True)
    p.add_argument("--defs", help="compound definition CSV (default: built-in 11)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_zero_shot)

    p = sub.add_parser("align", help="affine-align landmark frames")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--canonical", help="landmark CSV supplying the target points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("spectrogram", help="framed magnitude spectrogram of audio")
    p.add_argument("--audio", required=True)
    p.add_argument("--window-ms", type=float, default=33.0)
    p.add_argument("--overlap-ms", type=float, default=11.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrogram)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--all", action="store_true")
    p.add_argument("checks", nargs="*", help=f"subset of: {', '.join(sorted(CHECKS))}")
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (AffectKitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
