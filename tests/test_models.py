"""Model construction, forward semantics, and parameter handling."""

import functools

import numpy as np
import pytest

from affectkit import autodiff as ad
from affectkit.autodiff import DiffTensor, backward
from affectkit.errors import (
    BadCheckpoint,
    EmptySequence,
    InvalidSpec,
    ShapeMismatch,
)
from affectkit.models import (
    InputDims,
    Model,
    ModelSpec,
    RecurrentSpec,
    SequenceBatch,
    load_parameters,
    predict_sequence,
)
from affectkit.harness.checks import GRAD_TOLERANCE, max_relative_error
from reference_ops import (
    add,
    as_tensor,
    build_then_overwrite,
    gru_step,
    initial_state,
    mul,
    parameter_count,
    single_task_spec,
    softmax,
    square,
    trunk_parameters,
    tsum,
)

DIMS = InputDims(features=5)


def tiny_model(**kwargs):
    spec = ModelSpec(backbone=(6,), heads=("EXPR", "AU", "VA"), **kwargs)
    return Model(spec, DIMS, seed=0)


class TestSpecValidation:
    def test_default_is_valid(self):
        ModelSpec().validate()

    def test_unknown_head(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(heads=("EXPR", "BOGUS")).validate()

    def test_duplicate_heads(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(heads=("VA", "VA")).validate()

    def test_no_heads(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(heads=()).validate()

    def test_taps_must_increase(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(backbone=(4, 4), taps=(1, 0)).validate()

    def test_tap_out_of_range(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(backbone=(4,), taps=(1,)).validate()

    def test_layers_after_last_tap_rejected(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(backbone=(4, 4), taps=(0,)).validate()

    def test_per_tap_needs_multiple_taps(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(
                backbone=(4,),
                taps=(0,),
                recurrent=RecurrentSpec("per_tap", 8),
            ).validate()

    def test_streams_limited(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(streams=3).validate()

    def test_dropout_range(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(dropout=1.0).validate()

    def test_compound_classes_floor(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(heads=("COMPOUND",), compound_classes=1).validate()

    def test_nested_composite_rejected(self):
        inner = ModelSpec(members=(ModelSpec(),), fusion="fc")
        with pytest.raises(InvalidSpec):
            ModelSpec(members=(inner,), fusion="fc").validate()

    def test_bad_fusion_mode(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(members=(ModelSpec(),), fusion="avg").validate()


class TestBatchShapes:
    def test_features_must_be_3d(self):
        with pytest.raises(ShapeMismatch):
            SequenceBatch(features=np.zeros((4, 5)))

    def test_parallel_arrays_must_align(self):
        with pytest.raises(ShapeMismatch):
            SequenceBatch(features=np.zeros((2, 3, 5)), audio=np.zeros((2, 4, 6)))


class TestForward:
    def test_head_widths(self):
        model = tiny_model()
        batch = SequenceBatch(features=np.zeros((2, 3, 5)))
        preds = model.forward(batch)
        assert preds.expr_logits.shape == (6, 7)
        assert preds.au_logits.shape == (6, 17)
        assert preds.va.shape == (6, 2)
        assert preds.compound_logits is None

    def test_row_order_is_time_major(self):
        # passthrough trunk (no backbone) with a known head weight lets the
        # row layout be checked against a direct matrix product
        spec = ModelSpec(backbone=(), heads=("VA",))
        model = Model(spec, DIMS, seed=0)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(5, 2))
        b = rng.normal(size=(2,))
        load_parameters(model, {"head.va.w": w, "head.va.b": b})
        x = rng.normal(size=(3, 4, 5))
        preds = model.forward(SequenceBatch(features=x))
        for t in range(4):
            for bi in range(3):
                assert preds.va.data[t * 3 + bi] == pytest.approx(x[bi, t] @ w + b)

    def test_same_seed_same_parameters(self):
        a = tiny_model()
        b = tiny_model()
        for name, p in a.named_parameters().items():
            assert np.array_equal(p.data, b.named_parameters()[name].data)

    def test_different_seeds_differ(self):
        a = Model(ModelSpec(backbone=(6,), heads=("VA",)), DIMS, seed=0)
        b = Model(ModelSpec(backbone=(6,), heads=("VA",)), DIMS, seed=1)
        assert not np.array_equal(
            a.named_parameters()["backbone.s0.l0.w"].data,
            b.named_parameters()["backbone.s0.l0.w"].data,
        )

    def test_eval_forward_deterministic(self):
        model = tiny_model(dropout=0.5)
        x = np.random.default_rng(1).normal(size=(2, 3, 5))
        a = model.forward(SequenceBatch(features=x)).va.data
        b = model.forward(SequenceBatch(features=x)).va.data
        assert np.array_equal(a, b)

    def test_train_dropout_perturbs_outputs(self):
        model = tiny_model(dropout=0.5)
        x = np.random.default_rng(1).normal(size=(2, 3, 5))
        eval_out = model.forward(SequenceBatch(features=x)).va.data
        train_out = model.forward(
            SequenceBatch(features=x), train=True, rng=np.random.default_rng(2)
        ).va.data
        assert not np.array_equal(eval_out, train_out)

    def test_feature_dim_checked(self):
        model = tiny_model()
        with pytest.raises(ShapeMismatch):
            model.forward(SequenceBatch(features=np.zeros((1, 2, 9))))

    def test_zero_parameters_give_uniform_expressions(self):
        model = Model(ModelSpec(backbone=(4,), heads=("EXPR",)), DIMS, seed=0)
        zeros = {n: np.zeros_like(p.data) for n, p in model.named_parameters().items()}
        load_parameters(model, zeros)
        preds = model.forward(SequenceBatch(features=np.ones((2, 2, 5))))
        assert softmax(preds.expr_logits, axis=1).data == pytest.approx(np.full((4, 7), 1 / 7))
        assert preds.expr_logits.data == pytest.approx(np.zeros((4, 7)))


class TestRecurrence:
    def test_single_stack_carries_state(self):
        spec = ModelSpec(
            backbone=(6,), recurrent=RecurrentSpec("single", 8, layers=2), heads=("VA",)
        )
        model = Model(spec, DIMS, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 5))
        fwd = model.forward(SequenceBatch(features=x)).va.data
        rev = model.forward(SequenceBatch(features=x[:, ::-1, :])).va.data
        # final frame sees different histories
        assert not np.allclose(fwd[-1], rev[0])

    def test_stateless_trunk_ignores_order(self):
        model = Model(ModelSpec(backbone=(6,), heads=("EXPR",)), DIMS, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 5))
        fwd = model.forward(SequenceBatch(features=x)).expr_logits.data
        rev = model.forward(SequenceBatch(features=x[:, ::-1, :])).expr_logits.data
        assert np.allclose(fwd[::-1], rev)

    def test_per_tap_output_width(self):
        spec = ModelSpec(
            backbone=(6, 4),
            taps=(0, 1),
            recurrent=RecurrentSpec("per_tap", 3),
            heads=("VA",),
        )
        model = Model(spec, DIMS, seed=0)
        assert model.trunk_width == 6
        names = model.named_parameters()
        assert any(n.startswith("recurrent.b0.") for n in names)
        assert any(n.startswith("recurrent.b1.") for n in names)

    def test_tap_concat_width(self):
        spec = ModelSpec(backbone=(6, 4), taps=(0, 1), heads=("VA",))
        model = Model(spec, DIMS, seed=0)
        assert model.trunk_width == 10


class TestStreamsAndLandmarks:
    def test_two_stream_needs_audio(self):
        dims = InputDims(features=5, audio=3)
        spec = ModelSpec(backbone=(6,), streams=2, heads=("VA",))
        model = Model(spec, dims, seed=0)
        with pytest.raises(ShapeMismatch):
            model.forward(SequenceBatch(features=np.zeros((1, 2, 5))))
        preds = model.forward(
            SequenceBatch(features=np.zeros((1, 2, 5)), audio=np.zeros((1, 2, 3)))
        )
        assert preds.va.shape == (2, 2)

    def test_two_stream_without_audio_dims(self):
        with pytest.raises(InvalidSpec):
            Model(ModelSpec(streams=2, heads=("VA",)), InputDims(features=5), seed=0)

    def test_landmark_concat_widens_trunk(self):
        dims = InputDims(features=5, landmarks=4)
        spec = ModelSpec(backbone=(6,), landmark_concat=True, heads=("VA",))
        model = Model(spec, dims, seed=0)
        assert model.trunk_width == 10
        with pytest.raises(ShapeMismatch):
            model.forward(SequenceBatch(features=np.zeros((1, 2, 5))))
        preds = model.forward(
            SequenceBatch(
                features=np.zeros((1, 2, 5)), landmarks=np.zeros((1, 2, 4))
            )
        )
        assert preds.va.shape == (2, 2)


class TestComposite:
    def composite_spec(self, fusion):
        member = ModelSpec(backbone=(6,))
        return ModelSpec(
            members=(member, member),
            fusion=fusion,
            fusion_width=8,
            heads=("EXPR", "VA"),
        )

    @pytest.mark.parametrize("fusion", ["fc", "rnn"])
    def test_forward_shapes(self, fusion):
        model = Model(self.composite_spec(fusion), DIMS, seed=0)
        preds = model.forward(SequenceBatch(features=np.ones((2, 3, 5))))
        assert preds.expr_logits.shape == (6, 7)
        assert preds.va.shape == (6, 2)

    def test_member_parameter_prefixes(self):
        model = Model(self.composite_spec("fc"), DIMS, seed=0)
        names = set(model.named_parameters())
        assert any(n.startswith("member0.backbone") for n in names)
        assert any(n.startswith("member1.backbone") for n in names)
        assert "fusion.w" in names

    def test_members_initialized_independently(self):
        model = Model(self.composite_spec("fc"), DIMS, seed=0)
        params = model.named_parameters()
        assert not np.array_equal(
            params["member0.backbone.s0.l0.w"].data,
            params["member1.backbone.s0.l0.w"].data,
        )


class TestParameterAccess:
    def test_head_trunk_split(self):
        model = tiny_model()
        heads = model.head_parameters()
        trunk = trunk_parameters(model)
        assert len(heads) + len(trunk) == len(model.parameters())
        assert len(heads) == 6  # three heads, weight and bias each

    def test_parameter_count(self):
        model = Model(ModelSpec(backbone=(6,), heads=("VA",)), DIMS, seed=0)
        # dense 5->6 plus head 6->2 with biases
        assert parameter_count(model) == 5 * 6 + 6 + 6 * 2 + 2


class TestLoadParameters:
    def test_strict_round_trip(self):
        src = tiny_model()
        dst = Model(src.spec, DIMS, seed=9)
        values = {n: p.data for n, p in src.named_parameters().items()}
        loaded, skipped = load_parameters(dst, values)
        assert not skipped and len(loaded) == len(values)
        x = SequenceBatch(features=np.ones((1, 2, 5)))
        assert np.array_equal(src.forward(x).va.data, dst.forward(x).va.data)

    def test_strict_name_mismatch(self):
        # a whole checkpoint loads through the constructor, which checks names
        with pytest.raises(BadCheckpoint, match="parameter names differ"):
            Model(tiny_model().spec, DIMS, seed=0, values={"nope": np.zeros(2)})

    def test_partial_load(self):
        trunk_donor = Model(ModelSpec(backbone=(6,), heads=("VA",)), DIMS, seed=1)
        model = Model(ModelSpec(backbone=(6,), heads=("EXPR",)), DIMS, seed=2)
        values = {n: p.data for n, p in trunk_donor.named_parameters().items()}
        loaded, skipped = load_parameters(model, values)
        assert "backbone.s0.l0.w" in loaded
        assert "head.expr.w" in skipped
        assert np.array_equal(
            model.named_parameters()["backbone.s0.l0.w"].data,
            values["backbone.s0.l0.w"],
        )

    def test_load_after_optimizer_is_built(self):
        """Loading copies into the optimizer's views, so ``step`` updates
        the loaded values, exactly as an optimizer built after loading."""
        donor = Model(tiny_model().spec, DIMS, seed=4)
        values = {n: p.data.copy() for n, p in donor.named_parameters().items()}
        late, early = tiny_model(), tiny_model()
        load_parameters(late, values)
        late_opt = ad.Adam(late.parameters(), lr=0.01)
        early_opt = ad.Adam(early.parameters(), lr=0.01)
        load_parameters(early, values)
        for model, opt in ((late, late_opt), (early, early_opt)):
            for p in model.parameters():
                p.grad += 1.0
            opt.step()
        for name, p in early.named_parameters().items():
            assert not np.array_equal(p.data, values[name])
            assert np.array_equal(p.data, late.named_parameters()[name].data)

    def test_shape_mismatch_always_fails(self):
        model = tiny_model()
        values = {n: p.data for n, p in model.named_parameters().items()}
        values["head.va.w"] = np.zeros((3, 3))
        with pytest.raises(BadCheckpoint):
            load_parameters(model, values)


class TestPredictSequence:
    def make_va_identity_model(self):
        # passthrough trunk, head projects feature 0 to valence, 1 to arousal
        spec = ModelSpec(backbone=(), heads=("VA",))
        model = Model(spec, InputDims(features=2), seed=0)
        w = np.eye(2)
        load_parameters(model, {"head.va.w": w, "head.va.b": np.zeros(2)})
        return model

    def test_median_odd_count(self):
        model = self.make_va_identity_model()
        frames = np.array([[0.1, 0.0], [0.9, 0.0], [0.2, 0.0]])
        out = predict_sequence(model, frames)
        assert out.va.shape == (3, 2)
        assert out.va_median[0] == pytest.approx(0.2)

    def test_median_even_count_averages_middle(self):
        model = self.make_va_identity_model()
        frames = np.array([[0.1, 0.0], [0.3, 0.0]])
        out = predict_sequence(model, frames)
        assert out.va_median[0] == pytest.approx(0.2)

    def test_probability_heads(self):
        model = tiny_model()
        out = predict_sequence(model, np.ones((4, 5)))
        assert out.expr_probs.shape == (4, 7)
        assert out.expr_probs.sum(axis=1) == pytest.approx(np.ones(4))
        assert np.all((out.au_probs >= 0) & (out.au_probs <= 1))

    def test_missing_heads_are_none(self):
        model = Model(ModelSpec(backbone=(4,), heads=("EXPR",)), DIMS, seed=0)
        out = predict_sequence(model, np.ones((2, 5)))
        assert out.va is None and out.va_median is None
        assert out.au_probs is None

    def test_empty_sequence(self):
        model = tiny_model()
        with pytest.raises(EmptySequence):
            predict_sequence(model, np.zeros((0, 5)))

    @pytest.mark.parametrize("recurrent", [None, RecurrentSpec("single", 3)])
    @pytest.mark.parametrize("shape", [(2, 0, 5), (0, 3, 5)])
    def test_empty_batch_rejected(self, recurrent, shape):
        # dense and recurrent (single:3x1) specs fail alike, before any work
        model = tiny_model(recurrent=recurrent)
        with pytest.raises(EmptySequence):
            model.forward(SequenceBatch(features=np.zeros(shape)))


class TestSingleTaskSpec:
    def test_restricts_heads(self):
        spec = ModelSpec(backbone=(8, 8), heads=("EXPR", "AU", "VA"), dropout=0.1)
        solo = single_task_spec(spec, "EXPR")
        assert solo.heads == ("EXPR",)
        assert solo.backbone == spec.backbone
        assert solo.dropout == spec.dropout

    def test_unknown_head(self):
        with pytest.raises(InvalidSpec):
            single_task_spec(ModelSpec(), "FACE")


def per_frame_forward(model, batch):
    """Reference forward that runs every layer on one (B, d) frame at a
    time, carrying GRU state from frame to frame."""
    b_size = batch.batch_size
    states = [
        [[initial_state(cell, b_size) for cell in stack] for stack in trunk.branches]
        for trunk in model.trunks
    ]
    fusion_h = None
    if model.fusion_layer is not None and model.fusion_layer[0] == "rnn":
        fusion_h = initial_state(model.fusion_layer[1], b_size)
    rows = {name: [] for name in model.heads}
    for t in range(batch.seq_len):
        outs = []
        for trunk, state in zip(model.trunks, states):
            spec = trunk.spec
            taps = []
            for s, x in enumerate([batch.features, batch.audio][: spec.streams]):
                h, tapped = DiffTensor(x[:, t]), []
                for i, (w, b) in enumerate(trunk.layers[s]):
                    h = ad.relu(ad.dense(h, w, b))
                    if i in spec.taps:
                        tapped.append(h)
                taps.append(tapped or [h])
            fused = [ad.concat(list(group), axis=1) for group in zip(*taps)]
            if spec.landmark_concat:
                lmk = DiffTensor(batch.landmarks[:, t])
                fused[-1] = ad.concat([fused[-1], lmk], axis=1)
            if spec.recurrent is None:
                outs.append(ad.concat(fused, axis=1))
                continue
            single = spec.recurrent.kind == "single"
            ins = [ad.concat(fused, axis=1)] if single else fused
            for stack, hs, x in zip(trunk.branches, state, ins):
                for k, cell in enumerate(stack):
                    hs[k] = x = gru_step(cell, x, hs[k])
            outs.append(ad.concat([hs[-1] for hs in state], axis=1))
        feat = ad.concat(outs, axis=1)
        if model.fusion_layer is not None and model.fusion_layer[0] == "fc":
            feat = ad.relu(ad.dense(feat, model.fusion_layer[1], model.fusion_layer[2]))
        elif fusion_h is not None:
            feat = fusion_h = gru_step(model.fusion_layer[1], feat, fusion_h)
        for name, (w, b) in model.heads.items():
            rows[name].append(ad.dense(feat, w, b))
    return {name: ad.concat(r, axis=0) for name, r in rows.items()}


ALL_DIMS = InputDims(features=5, audio=3, landmarks=4)
_REC = ModelSpec(backbone=(6,), recurrent=RecurrentSpec("single", 4))
EQUIVALENCE_SPECS = {
    "dense": ModelSpec(backbone=(6, 5), heads=("EXPR", "AU", "VA")),
    "tapped": ModelSpec(backbone=(6, 4), taps=(0, 1), heads=("VA", "COMPOUND")),
    "two_stream_landmark": ModelSpec(
        backbone=(6,), streams=2, landmark_concat=True, heads=("VA", "AU")
    ),
    "single": ModelSpec(backbone=(6, 5), recurrent=RecurrentSpec("single", 4), heads=("AU",)),
    "single_2_layers": ModelSpec(
        backbone=(6,), recurrent=RecurrentSpec("single", 4, layers=2), heads=("VA", "EXPR")
    ),
    "per_tap": ModelSpec(
        backbone=(6, 4), taps=(0, 1), recurrent=RecurrentSpec("per_tap", 3), heads=("VA",)
    ),
    "composite_fc": ModelSpec(
        members=(ModelSpec(backbone=(6,)), _REC), fusion="fc", fusion_width=5,
        heads=("EXPR", "VA"),
    ),
    "composite_rnn": ModelSpec(
        members=(ModelSpec(backbone=(6,), streams=2), _REC), fusion="rnn",
        fusion_width=5, heads=("AU", "VA"),
    ),
}
_PRED_FIELDS = {"VA": "va", "EXPR": "expr_logits", "AU": "au_logits", "COMPOUND": "compound_logits"}


def random_batch(rng, b, t, dims=ALL_DIMS):
    return SequenceBatch(
        features=rng.normal(size=(b, t, dims.features)),
        audio=rng.normal(size=(b, t, dims.audio)),
        landmarks=rng.normal(size=(b, t, dims.landmarks)),
    )


def outputs_and_grads(model, heads, rng):
    """Head outputs and every parameter gradient of a random linear
    functional of them."""
    weights = {n: rng.normal(size=h.shape) for n, h in sorted(heads.items())}
    loss = functools.reduce(add, (tsum(mul(heads[n], as_tensor(w))) for n, w in weights.items()))
    for p in model.parameters():
        p.zero_grad()
    backward(loss)
    grads = {n: p.grad.copy() for n, p in model.named_parameters().items()}
    return {n: h.data.copy() for n, h in heads.items()}, grads


class TestBatchedForwardMatchesPerFrame:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_SPECS))
    @pytest.mark.parametrize("b,t", [(1, 1), (1, 7), (3, 1), (3, 7), (1, 60), (5, 7)])
    def test_outputs_and_gradients(self, name, b, t):
        model = Model(EQUIVALENCE_SPECS[name], ALL_DIMS, seed=5)
        batch = random_batch(np.random.default_rng(6), b, t)
        preds = model.forward(batch)
        batched = {n: getattr(preds, _PRED_FIELDS[n]) for n in model.heads}
        got = outputs_and_grads(model, batched, np.random.default_rng(7))
        want = outputs_and_grads(model, per_frame_forward(model, batch), np.random.default_rng(7))
        for got_part, want_part in zip(got, want):
            assert set(got_part) == set(want_part)
            for key in want_part:
                np.testing.assert_allclose(got_part[key], want_part[key], rtol=1e-12, err_msg=key)

    @pytest.mark.parametrize("name", ["single_2_layers", "per_tap", "composite_rnn"])
    def test_state_never_crosses_batch_rows(self, name):
        model = Model(EQUIVALENCE_SPECS[name], ALL_DIMS, seed=5)
        batch = random_batch(np.random.default_rng(8), 3, 6)
        # time-major rows (row = t*B + b) back to (B, T, 2)
        together = model.forward(batch).va.data.reshape(6, 3, 2).transpose(1, 0, 2)
        for b in range(3):
            alone = SequenceBatch(
                features=batch.features[b : b + 1],
                audio=batch.audio[b : b + 1],
                landmarks=batch.landmarks[b : b + 1],
            )
            np.testing.assert_allclose(
                together[b], model.forward(alone).va.data, rtol=1e-12, atol=1e-15
            )

    def test_recurrent_two_stream_finite_differences(self):
        spec = ModelSpec(
            backbone=(6,), streams=2, landmark_concat=True,
            recurrent=RecurrentSpec("single", 4), heads=("VA", "EXPR"),
        )
        model = Model(spec, ALL_DIMS, seed=2)
        batch = random_batch(np.random.default_rng(3), 2, 4)

        def objective():
            preds = model.forward(batch)
            probs = softmax(preds.expr_logits, axis=1)
            return add(tsum(square(preds.va)), tsum(mul(probs, preds.expr_logits)))

        assert max_relative_error(objective, model.parameters(), n_points=80) < GRAD_TOLERANCE


class TestLoadFromCheckpoint:
    """``Model(..., values=...)`` against the build-then-overwrite oracle."""

    @staticmethod
    def checkpoint(spec):
        model = Model(spec, ALL_DIMS, seed=11)
        return {n: p.data.copy() for n, p in model.named_parameters().items()}

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_SPECS))
    def test_bytes_equal_build_then_overwrite(self, name):
        spec = EQUIVALENCE_SPECS[name]
        values = self.checkpoint(spec)
        got = Model(spec, ALL_DIMS, seed=0, values=values)
        want = build_then_overwrite(spec, ALL_DIMS, 0, values)
        assert list(got.named_parameters()) == list(want.named_parameters())
        for (n, p), q in zip(got.named_parameters().items(), want.parameters()):
            assert p.shape == q.shape and p.data.tobytes() == q.data.tobytes(), n
        rng = np.random.default_rng(2)
        inputs = [rng.normal(size=(7, d)) for d in (5, 3, 4)]
        a, b = (predict_sequence(m, *inputs) for m in (got, want))
        for field in ("va", "expr_probs", "au_probs", "va_median"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None and y is None) or x.tobytes() == y.tobytes(), field

    @pytest.mark.parametrize("edit", ["missing", "extra", "shape", "missing_and_shape"])
    def test_bad_checkpoint_message_unchanged(self, edit):
        spec = EQUIVALENCE_SPECS["single"]
        values = self.checkpoint(spec)
        if "missing" in edit:
            del values["recurrent.b0.l0.w_h"]
        if edit == "extra":
            values["head.va.w"] = np.zeros((4, 2))
        if "shape" in edit:
            values["backbone.s0.l1.w"] = np.zeros((5, 6))
        with pytest.raises(BadCheckpoint) as want:
            build_then_overwrite(spec, ALL_DIMS, 0, values)
        with pytest.raises(BadCheckpoint) as got:
            Model(spec, ALL_DIMS, seed=0, values=values)
        assert str(got.value) == str(want.value)

    def test_load_model_draws_nothing_and_allocates_no_grad(self, tmp_path, monkeypatch):
        from affectkit.harness.config import RunConfig
        from affectkit.harness.training import load_model

        config = RunConfig(
            feature_dim=5, audio_dim=3, landmark_dim=4, streams=2, landmark_concat=True,
            backbone=(6,), recurrent="single:4x1", heads=("EXPR", "AU", "VA"),
        )
        model = Model(config.model_spec(), config.input_dims(), seed=4)
        ad.save_checkpoint(tmp_path / "m.ckpt", model.named_parameters())
        draws = []
        real = ad.glorot_uniform
        monkeypatch.setattr(ad, "glorot_uniform", lambda *a, **k: draws.append(a) or real(*a, **k))
        loaded = load_model(config, str(tmp_path / "m.ckpt"))
        assert draws == []
        assert all(p.grad is None for p in loaded.parameters())
        for name, p in loaded.named_parameters().items():
            assert p.data.tobytes() == model.named_parameters()[name].data.tobytes(), name
        Model(config.model_spec(), config.input_dims(), seed=4)
        assert len(draws) == 8  # the spy sees a seeded build: 2 streams, 3 gates, 3 heads
