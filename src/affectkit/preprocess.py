"""Input-side numerics: facial landmark alignment, intensity
normalization, and audio spectrogram framing.

Alignment fits a full 6-DOF affine map from 5 detected landmarks (eyes,
nose, mouth corners) to a canonical frontal template by least squares, in
closed form from the centred moments of both point sets, and rejects a
collinear source set by a scale- and translation-invariant rule.
Spectrograms use millisecond window/overlap settings converted to sample
counts at the configured rate, a zero-padded power-of-two DFT, magnitude
only, and per-spectrogram min-max normalization into [-1, 1] so audio
features share the visual features' range.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .csvfile import open_rows
from .errors import (
    BadRange,
    ConfigError,
    DegenerateLandmarks,
    SignalTooShort,
    ValueOutOfRange,
)

LANDMARK_NAMES = ("left_eye", "right_eye", "nose", "mouth_left", "mouth_right")


@dataclass(frozen=True)
class LandmarkSet:
    """Five (x, y) pixel points ordered left eye, right eye, nose, left
    mouth corner, right mouth corner; each coordinate an int or a float."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) != 5:
            raise ValueOutOfRange(f"expected 5 landmarks, got {len(self.points)}")
        try:
            arr = np.asarray(self.points)
        except ValueError as exc:  # points of different lengths
            raise ValueOutOfRange(f"each landmark must be two numbers (x, y): {exc}") from exc
        if arr.shape != (5, 2) or arr.dtype.kind not in "iuf":
            raise ValueOutOfRange(
                f"each landmark must be two numbers (x, y), got shape {arr.shape} of {arr.dtype}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueOutOfRange("landmarks must be finite")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.float64)


# Default frontal template for a 96x96 crop; real canonical coordinates
# are a config choice, this one is symmetric and well-conditioned.
CANONICAL_LANDMARKS = LandmarkSet(
    points=(
        (32.0, 36.0),
        (64.0, 36.0),
        (48.0, 56.0),
        (35.0, 72.0),
        (61.0, 72.0),
    )
)


@dataclass(frozen=True)
class AffineFit:
    """Fitted 2x3 affine matrix and the RMS point residual of the fit."""

    matrix: np.ndarray
    residual: float


def fit_alignment(source: LandmarkSet, canonical: LandmarkSet) -> AffineFit:
    """Least-squares affine A with A @ [x, y, 1] ~= canonical point.

    Closed form (Umeyama, TPAMI 1991): on points centred on their means the
    linear part L solves L @ S = C, with S = [[a, b], [b, c]] the source
    scatter and C the cross-moments; the translation is mean(dst) - L @
    mean(src). Collinear source points, det(S) <= 1e-14 * trace(S) ** 2,
    and coordinates that overflow the fit raise DegenerateLandmarks.
    """
    src, dst = ([(float(x), float(y)) for x, y in lm.points] for lm in (source, canonical))
    mx = (src[0][0] + src[1][0] + src[2][0] + src[3][0] + src[4][0]) / 5
    my = (src[0][1] + src[1][1] + src[2][1] + src[3][1] + src[4][1]) / 5
    nx = (dst[0][0] + dst[1][0] + dst[2][0] + dst[3][0] + dst[4][0]) / 5
    ny = (dst[0][1] + dst[1][1] + dst[2][1] + dst[3][1] + dst[4][1]) / 5
    pairs = [(x - mx, y - my, u - nx, v - ny) for (x, y), (u, v) in zip(src, dst)]
    a = b = c = xu = yu = xv = yv = 0.0
    for x, y, u, v in pairs:
        a, b, c = a + x * x, b + x * y, c + y * y
        xu, yu, xv, yv = xu + x * u, yu + y * u, xv + x * v, yv + y * v
    det = a * c - b * b
    trace_sq = (a + c) * (a + c)
    if not math.isfinite(det + trace_sq):
        raise DegenerateLandmarks("landmark coordinates overflow the fit")
    if det <= 1e-14 * trace_sq:
        raise DegenerateLandmarks("source landmarks are collinear")
    l00, l01 = (xu * c - yu * b) / det, (yu * a - xu * b) / det
    l10, l11 = (xv * c - yv * b) / det, (yv * a - xv * b) / det
    sq = 0.0
    for x, y, u, v in pairs:
        ex, ey = l00 * x + l01 * y - u, l10 * x + l11 * y - v
        sq += ex * ex + ey * ey
    rows = [[l00, l01, nx - l00 * mx - l01 * my], [l10, l11, ny - l10 * mx - l11 * my]]
    if not math.isfinite(sq + sum(rows[0]) + sum(rows[1])):
        raise DegenerateLandmarks("landmark coordinates overflow the fit")
    return AffineFit(matrix=np.array(rows), residual=math.sqrt(sq / 5))


def apply_alignment(affine, points) -> np.ndarray:
    """Apply a 2x3 affine (or an AffineFit) to an (N,2) point array."""
    matrix = affine.matrix if isinstance(affine, AffineFit) else np.asarray(affine)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return pts @ matrix[:, :2].T + matrix[:, 2]


def normalize_intensity(values, lo: float, hi: float) -> np.ndarray:
    """Linear map of [lo, hi] onto [-1, 1], clamped outside."""
    if not hi > lo:
        raise BadRange(f"need hi > lo, got [{lo}, {hi}]")
    x = np.asarray(values, dtype=np.float64)
    return np.clip(2.0 * (x - lo) / (hi - lo) - 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class SpectrogramConfig:
    sample_rate_hz: int = 44100
    window_ms: float = 33.0
    overlap_ms: float = 11.0

    def __post_init__(self):
        if not self.window_ms > self.overlap_ms > 0:
            raise BadRange(
                f"need window_ms > overlap_ms > 0, got {self.window_ms}/{self.overlap_ms}"
            )
        if self.window_samples < 1 or self.hop_samples < 1:
            raise BadRange(
                f"window {self.window_samples} and hop {self.hop_samples} samples at "
                f"{self.sample_rate_hz} Hz must both be at least 1"
            )

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms / 1000.0 * self.sample_rate_hz))

    @property
    def hop_samples(self) -> int:
        return self.window_samples - int(
            round(self.overlap_ms / 1000.0 * self.sample_rate_hz)
        )

    @property
    def fft_size(self) -> int:
        return 1 << (self.window_samples - 1).bit_length()


def frame_count(n_samples: int, config: SpectrogramConfig) -> int:
    """floor((N - window) / hop) + 1."""
    return (n_samples - config.window_samples) // config.hop_samples + 1


def spectrogram(signal, config: SpectrogramConfig = SpectrogramConfig()) -> np.ndarray:
    """(frames, bins) DFT magnitudes, min-max normalized to [-1, 1].

    Frames are window_samples long, hop_samples apart; each frame is
    zero-padded to the next power of two before the transform. A constant
    magnitude matrix (e.g. silence) normalizes to all zeros.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise BadRange(f"signal must be 1-d, got shape {x.shape}")
    window = config.window_samples
    hop = config.hop_samples
    if x.size < window:
        raise SignalTooShort(f"{x.size} samples < window of {window}")
    n_frames = frame_count(x.size, config)
    frames = np.stack([x[i * hop : i * hop + window] for i in range(n_frames)])
    mags = np.abs(np.fft.rfft(frames, n=config.fft_size, axis=1))
    lo = mags.min()
    hi = mags.max()
    if hi == lo:
        return np.zeros_like(mags)
    return normalize_intensity(mags, lo, hi)


# ---------------------------------------------------------------------------
# file formats


def read_audio(path) -> Tuple[int, np.ndarray]:
    """Read single-channel audio: two ASCII header lines (``rate <hz>``,
    ``length <n>``), then n raw little-endian 64-bit samples. A malformed
    header or a non-finite sample raises ConfigError, and a body shorter
    than the declared length SignalTooShort, each naming the path."""
    with open(path, "rb") as fh:
        try:
            fields = dict(fh.readline().decode("ascii").split() for _ in range(2))
            rate = int(fields["rate"])
            length = int(fields["length"])
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: bad audio header: {exc!r}") from exc
        if rate <= 0 or length < 0:
            raise ConfigError(f"{path}: bad audio header: rate {rate}, length {length}")
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body < 8 * length:  # checked before reading, so a huge length allocates nothing
            raise SignalTooShort(f"{path}: audio body has {body} bytes, expected {8 * length}")
        samples = np.frombuffer(fh.read(8 * length), dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ConfigError(f"{path}: non-finite audio sample at index {bad[0]}")
    return rate, samples


def read_landmarks(path) -> Dict[int, LandmarkSet]:
    """CSV with header ``frame,x1,y1,...,x5,y5`` -> per-frame LandmarkSet.
    A missing header, a short row, a bad value or a repeated frame raises
    ConfigError at ``path:line``."""
    out: Dict[int, LandmarkSet] = {}
    with open_rows(path) as (header, rows):
        if header is None:
            raise ConfigError(f"{path}:1: empty file, expected a landmark header")
        for line, row in rows:
            where = f"{path}:{line}"
            if len(row) < 11:
                raise ConfigError(f"{where}: expected 11 fields, got {len(row)}")
            try:
                coords = [float(c) for c in row[1:11]]
                pts = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(5))
                landmarks = LandmarkSet(points=pts)
                frame = int(row[0])
            except (ValueError, ValueOutOfRange) as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            if frame in out:
                raise ConfigError(f"{where}: duplicate frame {frame}")
            out[frame] = landmarks
    return out


def write_landmarks(path, landmarks: Dict[int, LandmarkSet]) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["frame"]
        for i in range(1, 6):
            header += [f"x{i}", f"y{i}"]
        writer.writerow(header)
        for frame in sorted(landmarks):
            row = [frame]
            for x, y in landmarks[frame].points:
                row += [repr(float(x)), repr(float(y))]
            writer.writerow(row)
