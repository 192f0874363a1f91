"""Ensemble fusion and temporal post-processing."""

import numpy as np
import pytest

from affectkit.errors import (
    BadAlpha,
    ConfigError,
    EvenWindow,
    InvalidSpec,
    KeyMisalignment,
    NegativeWeight,
    ZeroWeightSum,
)
from affectkit.fusion import (
    EnsembleMember,
    decision_level_fuse,
    median_filter,
    read_manifest,
    smooth,
)
from affectkit.harness.config import RunConfig
from affectkit.models import InputDims, Model, ModelSpec, SequenceBatch


def member(mid, ccc_v, ccc_a, preds):
    return EnsembleMember(
        member_id=mid, val_ccc_v=ccc_v, val_ccc_a=ccc_a, predictions=preds
    )


class TestDecisionLevelFuse:
    def test_two_member_hand_value(self):
        a = member("a", 0.4, 1.0, {"f0": (0.2, 0.0)})
        b = member("b", 0.6, 1.0, {"f0": (0.5, 0.0)})
        fused = decision_level_fuse([a, b])
        # (0.4*0.2 + 0.6*0.5) / 1.0
        assert fused["f0"][0] == 0.38

    def test_single_member_identity(self):
        a = member("a", 0.7, 0.3, {"f0": (0.12, -0.5), "f1": (0.9, 0.2)})
        fused = decision_level_fuse([a])
        assert fused == {"f0": (0.12, -0.5), "f1": (0.9, 0.2)}

    def test_dimensions_weighted_independently(self):
        a = member("a", 1.0, 0.25, {"f0": (1.0, 1.0)})
        b = member("b", 1.0, 0.75, {"f0": (0.0, 0.0)})
        fused = decision_level_fuse([a, b])
        assert fused["f0"][0] == pytest.approx(0.5)
        assert fused["f0"][1] == pytest.approx(0.25)

    def test_convex_combination(self):
        rng = np.random.default_rng(0)
        keys = [f"f{i}" for i in range(50)]
        members = []
        for i in range(4):
            preds = {k: tuple(rng.uniform(-1, 1, size=2)) for k in keys}
            members.append(member(f"m{i}", rng.uniform(0.1, 1), rng.uniform(0.1, 1), preds))
        fused = decision_level_fuse(members)
        for k in keys:
            for dim in (0, 1):
                values = [m.predictions[k][dim] for m in members]
                assert min(values) - 1e-12 <= fused[k][dim] <= max(values) + 1e-12

    def test_negative_weight_rejected(self):
        a = member("a", -0.1, 0.5, {"f0": (0, 0)})
        with pytest.raises(NegativeWeight):
            decision_level_fuse([a])

    @pytest.mark.parametrize("weights", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5)])
    def test_non_finite_weight_rejected(self, weights):
        a = member("a", *weights, {"f0": (0.2, 0.1)})
        b = member("b", 0.5, 0.5, {"f0": (0.4, 0.3)})
        with pytest.raises(NegativeWeight, match="non-finite"):
            decision_level_fuse([b, a])

    def test_zero_weight_sum(self):
        a = member("a", 0.0, 0.5, {"f0": (0, 0)})
        with pytest.raises(ZeroWeightSum):
            decision_level_fuse([a])
        with pytest.raises(ZeroWeightSum):
            decision_level_fuse([])

    def test_key_misalignment(self):
        a = member("a", 0.5, 0.5, {"f0": (0, 0)})
        b = member("b", 0.5, 0.5, {"f1": (0, 0)})
        with pytest.raises(KeyMisalignment):
            decision_level_fuse([a, b])


class TestModelLevelFuseSpec:
    """Model-level fusion specs come from ``RunConfig.model_spec``."""

    def test_composite_spec(self):
        cfg = RunConfig(
            backbone=(8,), ensemble_members=2, ensemble_fusion="rnn", fusion_width=12
        )
        spec = cfg.model_spec()
        member = ModelSpec(backbone=(8,), heads=cfg.heads)
        assert spec.members == (member, member)
        assert spec.fusion == "rnn"
        assert spec.fusion_width == 12

    def test_heads_default_to_first_member(self):
        spec = RunConfig(
            backbone=(8,), heads=("EXPR", "VA"), ensemble_members=2
        ).model_spec()
        assert spec.heads == spec.members[0].heads == ("EXPR", "VA")

    def test_invalid_mode(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(members=(ModelSpec(),), fusion="sum").validate()

    @pytest.mark.parametrize("fusion", ["fc", "rnn"])
    def test_compound_ensemble_head_width(self, fusion):
        cfg = RunConfig(
            feature_dim=6,
            backbone=(8,),
            heads=("COMPOUND",),
            compound_classes=5,
            ensemble_members=2,
            ensemble_fusion=fusion,
        )
        spec = cfg.model_spec()
        assert spec.compound_classes == 5
        model = Model(spec, InputDims(features=6), seed=0)
        preds = model.forward(SequenceBatch(features=np.zeros((1, 3, 6))))
        assert preds.compound_logits.shape == (3, 5)


class TestMedianFilter:
    def test_window_three(self):
        out = median_filter([0.1, 0.9, 0.2], window=3)
        assert out.tolist() == [0.1, 0.2, 0.2]

    def test_window_one_is_identity(self):
        x = [0.4, -0.2, 0.9]
        assert median_filter(x, window=1).tolist() == x

    def test_length_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=37)
        assert median_filter(x, window=7).shape == x.shape

    def test_removes_impulse(self):
        x = np.zeros(11)
        x[5] = 100.0
        assert np.all(median_filter(x, window=3) == 0.0)

    def test_even_window_rejected(self):
        with pytest.raises(EvenWindow):
            median_filter([1.0, 2.0], window=2)
        with pytest.raises(EvenWindow):
            median_filter([1.0], window=0)


class TestSmooth:
    def test_half_alpha(self):
        assert smooth([0.0, 1.0], alpha=0.5).tolist() == [0.0, 0.5]

    def test_alpha_one_is_identity(self):
        x = [0.3, -0.8, 0.5]
        assert smooth(x, alpha=1.0).tolist() == x

    def test_recursion(self):
        out = smooth([1.0, 0.0, 0.0], alpha=0.25)
        assert out[1] == pytest.approx(0.75)
        assert out[2] == pytest.approx(0.5625)

    def test_empty_series(self):
        assert smooth([], alpha=0.5).size == 0

    def test_alpha_range(self):
        with pytest.raises(BadAlpha):
            smooth([1.0], alpha=0.0)
        with pytest.raises(BadAlpha):
            smooth([1.0], alpha=1.5)


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "members.csv"
        path.write_text(
            "member_id,ccc_v,ccc_a,path\n"
            "m0,0.5,0.3,preds0.csv\n"
            "m1, 0.55 , 0.45 , preds1.csv\n"
        )
        rows = read_manifest(path)
        assert rows == [
            ("m0", 0.5, 0.3, "preds0.csv"),
            ("m1", 0.55, 0.45, "preds1.csv"),
        ]

    @pytest.mark.parametrize(
        "row,message",
        [
            ("m1,0.5,0.3", "expected 4 fields, got 3"),
            ("m1,0.5,high,p.csv", "could not convert"),
            ("m1,nan,0.3,p.csv", "CCC weights must be finite"),
            ("m1,0.5,inf,p.csv", "CCC weights must be finite"),
        ],
    )
    def test_malformed_row_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "members.csv"
        path.write_text(f"member_id,ccc_v,ccc_a,path\nm0,0.5,0.3,p0.csv\n{row}\n")
        with pytest.raises(ConfigError, match=rf"members\.csv:3: {message}"):
            read_manifest(path)

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "members.csv"
        path.write_text("")
        with pytest.raises(ZeroWeightSum):
            read_manifest(path)
