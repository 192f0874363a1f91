"""Face alignment, intensity normalization, and audio spectrograms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectkit.errors import (
    AffectKitError,
    BadRange,
    ConfigError,
    DegenerateLandmarks,
    SignalTooShort,
    ValueOutOfRange,
)
from affectkit.preprocess import (
    CANONICAL_LANDMARKS,
    LANDMARK_NAMES,
    LandmarkSet,
    SpectrogramConfig,
    apply_alignment,
    fit_alignment,
    frame_count,
    normalize_intensity,
    read_audio,
    read_landmarks,
    spectrogram,
    write_landmarks,
)
from reference_input import fit_alignment_exact, fit_alignment_lstsq, write_audio

H = "frame,x1,y1,x2,y2,x3,y3,x4,y4,x5,y5\n"  # the landmark header


def shifted_canonical(dx, dy):
    pts = CANONICAL_LANDMARKS.as_array() + np.array([dx, dy])
    return LandmarkSet(points=tuple(map(tuple, pts)))


class TestLandmarks:
    def test_five_named_points(self):
        assert len(LANDMARK_NAMES) == 5
        assert CANONICAL_LANDMARKS.as_array().shape == (5, 2)

    def test_wrong_count(self):
        with pytest.raises(ValueOutOfRange):
            LandmarkSet(points=((0.0, 0.0),))

    def test_non_finite(self):
        pts = [(float(i), 0.0) for i in range(4)] + [(np.nan, 0.0)]
        with pytest.raises(ValueOutOfRange):
            LandmarkSet(points=tuple(pts))

    @pytest.mark.parametrize(
        "points",
        [
            tuple((float(i), 2.0 * i, 1.0) for i in range(5)),
            tuple((float(i),) for i in range(5)),
            tuple((float(i), "2") for i in range(5)),
            ((0.0, 1.0),) * 4 + ((0.0,),),
            ((0.0, None),) * 5,
            tuple(range(5)),
        ],
        ids=["xyz", "one_number", "string", "ragged", "none", "scalars"],
    )
    def test_each_point_is_two_numbers(self, points):
        with pytest.raises(ValueOutOfRange, match="two numbers"):
            LandmarkSet(points=points)


class TestAlignment:
    def test_identity_fit(self):
        fit = fit_alignment(CANONICAL_LANDMARKS, CANONICAL_LANDMARKS)
        assert fit.residual < 1e-9
        assert fit.matrix == pytest.approx(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), abs=1e-9
        )

    def test_translation_recovered(self):
        source = shifted_canonical(3.0, 4.0)
        fit = fit_alignment(source, CANONICAL_LANDMARKS)
        assert fit.residual < 1e-9
        assert fit.matrix[:, :2] == pytest.approx(np.eye(2), abs=1e-9)
        assert fit.matrix[:, 2] == pytest.approx([-3.0, -4.0], abs=1e-9)

    def test_planted_affines_recovered(self):
        rng = np.random.default_rng(0)
        dst = CANONICAL_LANDMARKS.as_array()
        for _ in range(100):
            angle = rng.uniform(-np.pi / 3, np.pi / 3)
            scale = rng.uniform(0.5, 2.0)
            shear = rng.uniform(-0.2, 0.2)
            rot = scale * np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            )
            rot[0, 1] += shear
            shift = rng.uniform(-20, 20, size=2)
            inverse = np.linalg.inv(rot)
            src_pts = (dst - shift) @ inverse.T
            source = LandmarkSet(points=tuple(map(tuple, src_pts)))
            fit = fit_alignment(source, CANONICAL_LANDMARKS)
            assert fit.residual < 1e-9
            mapped = apply_alignment(fit, src_pts)
            assert mapped == pytest.approx(dst, abs=1e-6)

    def test_collinear_rejected(self):
        pts = tuple((float(i), 2.0 * i + 1.0) for i in range(5))
        with pytest.raises(DegenerateLandmarks):
            fit_alignment(LandmarkSet(points=pts), CANONICAL_LANDMARKS)

    def test_apply_to_raw_matrix(self):
        matrix = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
        out = apply_alignment(matrix, [[1.0, 1.0]])
        assert out == pytest.approx(np.array([[3.0, 1.0]]))

    def test_noisy_fit_reports_residual(self):
        rng = np.random.default_rng(1)
        pts = CANONICAL_LANDMARKS.as_array() + rng.normal(0, 2.0, size=(5, 2))
        fit = fit_alignment(
            LandmarkSet(points=tuple(map(tuple, pts))), CANONICAL_LANDMARKS
        )
        assert fit.residual > 0.01


def face(angle, stretch, log_scale, offset, direction, seed) -> LandmarkSet:
    """The canonical template centred and shrunk to unit size, jittered,
    rotated and stretched, then moved ``offset`` units away from the origin
    and scaled by 10 ** log_scale, so the offset is relative to the face."""
    rng = np.random.default_rng(seed)
    base = CANONICAL_LANDMARKS.as_array()
    base = (base - base.mean(axis=0)) / 20.0 + rng.normal(0.0, 0.05, (5, 2))
    c, s = math.cos(angle), math.sin(angle)
    linear = np.array([[c, -s], [s, c]]) @ np.diag([1.0, stretch])
    shift = offset * np.array([math.cos(direction), math.sin(direction)])
    pts = 10.0**log_scale * (base @ linear.T + shift)
    return LandmarkSet(points=tuple(map(tuple, pts)))


def faces(salt: int):
    """Random faces; source and target draw with different salts, so their
    jitter differs and no fit between them is exact."""
    return st.builds(
        face,
        angle=st.floats(-math.pi, math.pi),
        stretch=st.floats(0.5, 2.0),
        log_scale=st.floats(-6.0, 6.0),
        offset=st.floats(0.0, 1e4),
        direction=st.floats(-math.pi, math.pi),
        seed=st.integers(0, 2**32 - 1).map(lambda seed: (seed, salt)),
    )


def outcome(fit, source, canonical):
    try:
        return fit(source, canonical)
    except DegenerateLandmarks:
        return None


class TestClosedFormAgainstLstsq:
    """``fit_alignment`` against the SVD fit it replaced and against the
    exact least-squares solution (``reference_input``), over random faces at
    scales 1e-6 to 1e6 moved up to 1e4 face sizes from the origin.

    The SVD fit's own rounding grows with the distance from the origin, so
    its gaps are bounded on the scales that rounding follows: the matrix on
    the larger of its largest entry and the largest target coordinate (the
    translation is mean(dst) - L @ mean(src), however much the terms
    cancel), and the residual with a floor of 1e-3 of that coordinate (it is
    computed from mapped - dst in absolute coordinates). Over 8000 random
    draws of this kind the SVD fit's gaps from the exact solution reached
    3e-10 and 2.5e-11 on these scales, and 4e-6 on the linear part alone;
    the closed form's stayed near 1e-15, and the last three asserts hold it
    to 1e-13 and 1e-12.
    """

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(source=faces(0), target=st.one_of(st.just(CANONICAL_LANDMARKS), faces(1)))
    def test_same_decision_matrix_and_residual(self, source, target):
        old = outcome(fit_alignment_lstsq, source, target)
        new = outcome(fit_alignment, source, target)
        assert (old is None) == (new is None)
        if old is None:
            return
        reach = np.abs(target.as_array()).max()
        scale = max(np.abs(old.matrix).max(), reach)
        assert np.abs(new.matrix - old.matrix).max() <= 1e-9 * scale
        assert abs(new.residual - old.residual) <= 1e-9 * (old.residual + 1e-3 * reach)
        matrix, residual = fit_alignment_exact(source, target)
        linear = np.abs(matrix[:, :2]).max()
        assert np.abs(new.matrix[:, :2] - matrix[:, :2]).max() <= 1e-13 * linear
        assert np.abs(new.matrix - matrix).max() <= 1e-13 * scale
        assert abs(new.residual - residual) <= 1e-12 * residual

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        angle=st.floats(-math.pi, math.pi),
        log_scale=st.floats(-6.0, 6.0),
        offset=st.floats(0.0, 1e4),
        direction=st.floats(-math.pi, math.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_collinear_sets_rejected_at_any_rotation_scale_and_offset(
        self, angle, log_scale, offset, direction, seed
    ):
        t = np.random.default_rng(seed).normal(0.0, 1.0, 5)
        line = np.outer(t, [math.cos(angle), math.sin(angle)])
        shift = offset * np.array([math.cos(direction), math.sin(direction)])
        pts = 10.0**log_scale * (line + shift)
        with pytest.raises(DegenerateLandmarks, match="source landmarks are collinear"):
            fit_alignment(LandmarkSet(points=tuple(map(tuple, pts))), CANONICAL_LANDMARKS)

    @pytest.mark.parametrize("point", [(0.0, 0.0), (48.0, 56.0), (-3e5, 7e-3)])
    def test_five_coincident_points_rejected(self, point):
        with pytest.raises(DegenerateLandmarks, match="source landmarks are collinear"):
            fit_alignment(LandmarkSet(points=(point,) * 5), CANONICAL_LANDMARKS)

    @pytest.mark.parametrize("k", [1e-11, 1e9])
    def test_decision_and_fit_ignore_scale_and_offset(self, k):
        source = face(0.3, 1.5, 0.0, 0.0, 0.0, seed=4)
        moved = LandmarkSet(points=tuple((k * x + 3 * k, k * y - k) for x, y in source.points))
        # the SVD fit's absolute rank tolerance refused a face this small
        assert (outcome(fit_alignment_lstsq, moved, CANONICAL_LANDMARKS) is None) == (k < 1)
        base = fit_alignment(source, CANONICAL_LANDMARKS)
        fit = fit_alignment(moved, CANONICAL_LANDMARKS)
        assert fit.matrix[:, :2] * k == pytest.approx(base.matrix[:, :2], rel=1e-9)
        assert fit.residual == pytest.approx(base.residual, rel=1e-9)

    @pytest.mark.parametrize(
        "source_scale, canonical_scale", [(1e160, 1.0), (1e200, 1.0), (1.0, 1e200), (1e300, 1e300)]
    )
    def test_overflowing_coordinates_raise(self, source_scale, canonical_scale):
        base = CANONICAL_LANDMARKS.as_array()
        source = LandmarkSet(points=tuple(map(tuple, base * source_scale)))
        canonical = LandmarkSet(points=tuple(map(tuple, base * canonical_scale)))
        with pytest.raises(AffectKitError, match="overflow"):
            fit_alignment(source, canonical)


class TestNormalizeIntensity:
    def test_byte_range(self):
        out = normalize_intensity([0, 64, 255], 0, 255)
        assert out[0] == -1.0
        assert out[2] == 1.0
        assert out[1] == pytest.approx(2 * 64 / 255 - 1)  # about -0.498

    def test_clamps_outside_range(self):
        out = normalize_intensity([-10, 300], 0, 255)
        assert out.tolist() == [-1.0, 1.0]

    def test_midpoint_is_zero(self):
        assert normalize_intensity([5.0], 0, 10)[0] == 0.0

    def test_bad_range(self):
        with pytest.raises(BadRange):
            normalize_intensity([1.0], 5, 5)


class TestSpectrogramConfig:
    def test_default_sample_counts(self):
        cfg = SpectrogramConfig()
        assert cfg.window_samples == 1455  # 33 ms at 44.1 kHz
        assert cfg.hop_samples == 970  # window - 11 ms overlap
        assert cfg.fft_size == 2048

    def test_window_must_exceed_overlap(self):
        with pytest.raises(BadRange):
            SpectrogramConfig(window_ms=10.0, overlap_ms=11.0)

    @pytest.mark.parametrize(
        "window_ms,overlap_ms",
        [(1.0, 0.99), (0.4, 0.1), (2.0, 1.6)],  # hop 0, window 0, hop 0 at 1 kHz
    )
    def test_window_and_hop_need_a_sample(self, window_ms, overlap_ms):
        with pytest.raises(BadRange, match="at least 1"):
            SpectrogramConfig(sample_rate_hz=1000, window_ms=window_ms, overlap_ms=overlap_ms)

    def test_one_sample_window_and_hop_accepted(self):
        cfg = SpectrogramConfig(sample_rate_hz=1000, window_ms=2.0, overlap_ms=1.0)
        assert (cfg.window_samples, cfg.hop_samples) == (2, 1)
        assert frame_count(10, cfg) == 9

    def test_frame_count_formula(self):
        cfg = SpectrogramConfig()
        assert frame_count(1455, cfg) == 1
        assert frame_count(44100, cfg) == (44100 - 1455) // 970 + 1
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(cfg.window_samples, 200_000))
            assert frame_count(n, cfg) == (n - 1455) // 970 + 1


class TestSpectrogram:
    def test_shape(self):
        rng = np.random.default_rng(3)
        cfg = SpectrogramConfig()
        x = rng.normal(size=44100)
        mags = spectrogram(x, cfg)
        assert mags.shape == (frame_count(44100, cfg), cfg.fft_size // 2 + 1)

    def test_output_range(self):
        rng = np.random.default_rng(4)
        mags = spectrogram(rng.normal(size=5000), SpectrogramConfig())
        assert mags.min() == -1.0
        assert mags.max() == 1.0

    def test_silence_is_zeros(self):
        mags = spectrogram(np.zeros(3000), SpectrogramConfig())
        assert np.all(mags == 0.0)

    def test_tone_peaks_at_expected_bin(self):
        cfg = SpectrogramConfig()
        t = np.arange(44100) / 44100.0
        freq = 1000.0
        x = np.sin(2 * np.pi * freq * t)
        mags = spectrogram(x, cfg)
        peak_bin = int(np.argmax(mags[0]))
        expected = freq * cfg.fft_size / 44100.0
        assert abs(peak_bin - expected) <= 1

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            spectrogram(np.zeros(100), SpectrogramConfig())

    def test_requires_mono(self):
        with pytest.raises(BadRange):
            spectrogram(np.zeros((2, 3000)), SpectrogramConfig())


class TestFileFormats:
    def test_audio_round_trip(self, tmp_path):
        path = tmp_path / "clip.audio"
        rng = np.random.default_rng(5)
        samples = rng.normal(size=999)
        write_audio(path, 16000, samples)
        rate, loaded = read_audio(path)
        assert rate == 16000
        assert np.array_equal(loaded, samples)

    @pytest.mark.parametrize(
        "header",
        [b"rate 16000\nlen 4\n", b"rate 16000\n", b"", b"rate x\nlength 4\n",
         b"rate 16000 1\nlength 4\n", b"rate 16000\nlength -4\n", b"rate \xff\nlength 4\n"],
    )
    def test_malformed_audio_header(self, tmp_path, header):
        path = tmp_path / "clip.audio"
        path.write_bytes(header + bytes(32))
        with pytest.raises(ConfigError, match="clip.audio: bad audio header"):
            read_audio(path)

    @pytest.mark.parametrize("length", [5, 2**40, 10**30])
    def test_length_beyond_the_body(self, tmp_path, length):
        # checked against the file size before any read or allocation
        path = tmp_path / "clip.audio"
        path.write_bytes(f"rate 16000\nlength {length}\n".encode() + bytes(32))
        message = rf"clip.audio: audio body has 32 bytes, expected {8 * length}$"
        with pytest.raises(SignalTooShort, match=message):
            read_audio(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample(self, tmp_path, bad):
        path = tmp_path / "clip.audio"
        write_audio(path, 16000, [0.5, -0.25, bad, bad])
        with pytest.raises(ConfigError, match=r"clip.audio: non-finite audio sample at index 2$"):
            read_audio(path)

    def test_landmark_round_trip(self, tmp_path):
        path = tmp_path / "faces.landmarks"
        rng = np.random.default_rng(6)
        frames = {
            i: LandmarkSet(points=tuple(map(tuple, rng.uniform(0, 96, (5, 2)))))
            for i in (0, 3, 7)
        }
        write_landmarks(path, frames)
        loaded = read_landmarks(path)
        assert set(loaded) == {0, 3, 7}
        for i, lm in frames.items():
            assert np.array_equal(loaded[i].as_array(), lm.as_array())

    @pytest.mark.parametrize(
        "text,where",
        [
            ("", ":1:"),
            ("frame,x1,y1\n0,1,2\n", ":1:"),
            ("h\n0,1,2,3,4,5,6,7,8,9,10\n", ":1:"),
            (H + "0,1,2\n", ":2:"),
            (H + "0,1,2,3,4,5,6,7,8,9,10\n1,1,2,3,4,x,6,7,8,9,10\n", ":3:"),
            (H + "zero,1,2,3,4,5,6,7,8,9,10\n", ":2:"),
            (H + "0,1,2,3,4,5,6,7,8,9,10\n0,1,2,3,4,5,6,7,8,9,10\n", ":3:"),
            (H + "0,1,2,3,4,5,6,7,8,9,10\n1,1,2,3,4,5,6,7,8,9,10,999\n", ":3:"),
            (H + "0,1,2,3,4,5,6,7,8,9,10,\n", ":2:"),
        ],
    )
    def test_malformed_landmarks_name_the_line(self, tmp_path, text, where):
        path = tmp_path / "bad.landmarks"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"bad.landmarks{where}"):
            read_landmarks(path)
