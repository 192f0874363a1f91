"""Reverse-mode tensor core: ops vs central differences, optimizer, checkpoints."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affectkit.autodiff import (
    Adam,
    DiffTensor,
    GruCell,
    Parameters,
    backward,
    concat,
    dense,
    dropout,
    fused,
    glorot_uniform,
    gru_sequence,
    load_checkpoint,
    relu,
    save_checkpoint,
    sigmoid,
    softmax,
    take_rows,
)
from affectkit.errors import (
    BadCheckpoint,
    ConfigError,
    NonScalarRoot,
    ShapeMismatch,
    ValueOutOfRange,
)
from reference_ops import (
    LoopAdam,
    add,
    as_tensor,
    gru_step,
    initial_state,
    matmul,
    mul,
    recur_per_step,
    slice_axis,
    square,
    sub,
    tanh,
    tsum,
)


def numeric_grad(fn, x0, eps=1e-6):
    """Central-difference gradient of a scalar fn at x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat = x0.reshape(-1)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = eps
        hi = fn((flat + bump).reshape(x0.shape))
        lo = fn((flat - bump).reshape(x0.shape))
        g.reshape(-1)[i] = (hi - lo) / (2 * eps)
    return g


def analytic_grad(build, x0):
    x = as_tensor(np.asarray(x0, dtype=np.float64))
    root = build(x)
    backward(root)
    return x.grad


def check_op(build, x0, eps=1e-6, tol=1e-6):
    def scalar(values):
        return float(build(as_tensor(values)).data)

    a = analytic_grad(build, x0)
    n = numeric_grad(scalar, x0, eps=eps)
    assert a == pytest.approx(n, abs=tol), f"analytic {a} vs numeric {n}"


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.x = self.rng.normal(size=(3, 4))

    def test_add_mul_chain(self):
        check_op(lambda x: tsum(add(mul(x, x), mul(x, as_tensor(3.0)))), self.x)

    def test_sub(self):
        check_op(lambda x: tsum(mul(sub(x, as_tensor(0.5)), sub(as_tensor(2.0), x))), self.x)

    def test_relu(self):
        # keep values away from the kink where central differences lie
        x = self.x + np.sign(self.x) * 0.05
        check_op(lambda t: tsum(relu(t)), x)

    def test_tanh(self):
        check_op(lambda x: tsum(mul(tanh(x), tanh(x))), self.x)

    def test_sigmoid(self):
        check_op(lambda x: tsum(sigmoid(x)), self.x)

    def test_sigmoid_extreme_inputs_finite(self):
        y = sigmoid(as_tensor(np.array([-800.0, 800.0])))
        assert np.all(np.isfinite(y.data))
        assert y.data[0] >= 0.0 and y.data[1] <= 1.0

    def test_softmax(self):
        check_op(lambda x: tsum(mul(softmax(x), softmax(x))), self.x)

    def test_softmax_rows_normalize(self):
        s = softmax(as_tensor(self.x))
        assert s.data.sum(axis=-1) == pytest.approx(np.ones(3))


class TestStructuralGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.x = self.rng.normal(size=(4, 3))

    def test_matmul(self):
        w = self.rng.normal(size=(3, 5))
        check_op(lambda x: tsum(square(matmul(x, as_tensor(w)))), self.x)

    def test_dense_bias_broadcast(self):
        w = as_tensor(self.rng.normal(size=(3, 2)))
        b = as_tensor(self.rng.normal(size=(2,)))
        check_op(lambda x: tsum(square(dense(x, w, b))), self.x)

    def test_dense_bias_gradient_sums_over_batch(self):
        w = as_tensor(np.zeros((3, 2)))
        b = as_tensor(np.zeros(2))
        backward(tsum(dense(as_tensor(self.x), w, b)))
        assert b.grad == pytest.approx(np.full(2, 4.0))

    @pytest.mark.parametrize("n,d,h", [(1, 1, 1), (4, 3, 2), (60, 48, 17)])
    def test_dense_equals_matmul_plus_add(self, n, d, h):
        """The fused node's value and its three gradients equal the
        reference ``add(matmul(x, w), b)`` graph bit for bit."""

        def run(layer):
            rng = np.random.default_rng(n + d + h)
            x, w, b = (as_tensor(rng.normal(size=s)) for s in ((n, d), (d, h), (h,)))
            out = layer(x, w, b)
            backward(tsum(mul(out, as_tensor(rng.normal(size=(n, h))))))
            return [out.data, x.grad, w.grad, b.grad]

        fused = run(dense)
        reference = run(lambda x, w, b: add(matmul(x, w), b))
        for got, want in zip(fused, reference):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_dense_is_one_node(self):
        x, w, b = as_tensor(self.x), as_tensor(np.ones((3, 2))), as_tensor(np.ones(2))
        out = dense(x, w, b)
        assert [p for p, _ in out._edges] == [x, w, b]

    @pytest.mark.parametrize(
        "xs,ws,bs", [((4, 3), (2, 2), (2,)), ((4, 3), (3, 2), (1, 2)), ((3,), (3, 2), (2,)),
                     ((4, 3), (3, 2), (3,)), ((4, 3), (3,), (3,))]
    )
    def test_dense_shape_checked(self, xs, ws, bs):
        with pytest.raises(ShapeMismatch):
            dense(as_tensor(np.zeros(xs)), as_tensor(np.zeros(ws)), as_tensor(np.zeros(bs)))

    def test_tsum_axis_keepdims(self):
        check_op(lambda x: tsum(square(tsum(x, axis=0, keepdims=True))), self.x)

    def test_concat(self):
        other = self.rng.normal(size=(4, 2))
        check_op(
            lambda x: tsum(square(concat([x, as_tensor(other)], axis=1))), self.x
        )

    def test_slice_axis(self):
        check_op(lambda x: tsum(square(slice_axis(x, 1, 3, axis=0))), self.x)
        check_op(lambda x: tsum(square(slice_axis(x, 0, 2, axis=1))), self.x)

    def test_take_rows(self):
        check_op(lambda x: tsum(square(take_rows(x, [0, 2, 2]))), self.x)

    def test_take_rows_repeated_index_accumulates(self):
        x = as_tensor(self.x)
        backward(tsum(take_rows(x, [1, 1])))
        assert x.grad[1] == pytest.approx(np.full(3, 2.0))
        assert x.grad[0] == pytest.approx(np.zeros(3))


class TestBackwardContract:
    def test_non_scalar_root(self):
        with pytest.raises(NonScalarRoot):
            backward(as_tensor(np.zeros(3)))

    def test_gradient_accumulates_across_paths(self):
        x = as_tensor(2.0)
        y = add(mul(x, x), mul(x, as_tensor(3.0)))  # dy/dx = 2x + 3 = 7
        backward(y)
        assert x.grad == pytest.approx(7.0)

    def test_zero_grad(self):
        x = as_tensor(np.ones(2))
        backward(tsum(square(x)))
        x.zero_grad()
        assert np.all(x.grad == 0.0)

    def test_inner_grad_is_lazy(self):
        x = as_tensor(np.array([1.0, -2.0]))
        y = relu(x)
        assert y.grad is None and x.grad is None
        backward(tsum(y))
        assert np.array_equal(y.grad, np.ones(2))
        assert np.array_equal(x.grad, np.array([1.0, 0.0]))

    def test_inner_grad_is_per_sweep_and_leaves_accumulate(self):
        x = as_tensor(np.array([1.0, 2.0]))
        y = relu(x)
        root = tsum(square(y))
        backward(root)
        backward(root)
        assert np.array_equal(y.grad, 2.0 * x.data)
        assert np.array_equal(x.grad, 4.0 * x.data)

    def test_several_consumers_sum_and_stored_grads_stay(self):
        """A relu output feeding two dense nodes and a concat gets the sum of
        the three contributions, and no gradient ``backward`` has stored (some
        are views of another node's gradient) changes after it is stored."""
        rng = np.random.default_rng(5)
        x = as_tensor(rng.normal(size=(4, 3)))
        w1, b1 = as_tensor(rng.normal(size=(3, 2))), as_tensor(rng.normal(size=2))
        w2, b2 = as_tensor(rng.normal(size=(3, 5))), as_tensor(rng.normal(size=5))
        h = relu(x)
        a = dense(h, w1, b1)
        c = concat([h, a], axis=1)
        b = dense(h, w2, b2)
        k = rng.normal(size=(4, 5))
        root = tsum(mul(add(c, b), as_tensor(k)))
        stored = []  # (array backward handed each node, copy at that moment)
        for node in (root, root._edges[0][0], root._edges[0][0]._edges[0][0], a, b, c, h):
            node._edges = tuple(
                (p, lambda g, f=f: (stored.append((g, g.copy())), f(g))[1])
                for p, f in node._edges
            )
        backward(root)
        assert np.array_equal(c.grad, k) and np.array_equal(b.grad, k)
        assert np.array_equal(a.grad, k[:, 3:]) and np.shares_memory(a.grad, c.grad)
        parts = [k[:, :3], k[:, 3:] @ w1.data.T, k @ w2.data.T]
        assert h.grad == pytest.approx(sum(parts), abs=1e-12)
        assert len(stored) == 14  # one per edge
        for g, snapshot in stored:
            assert np.array_equal(g, snapshot)

    @pytest.mark.parametrize("leaf,contribution", [((2, 3), (3,)), ((3,), (2, 3)), ((), (1,))])
    def test_wrong_shape_for_a_leaf(self, leaf, contribution):
        x = DiffTensor(np.zeros(leaf))
        with pytest.raises(ShapeMismatch):
            backward(fused(1.0, [(x, np.ones(contribution))]))


B_SIZE, T_LEN = 2, 3  # every random graph below runs on T*B = 6 rows
OPS = ("dense", "relu", "concat", "take_rows", "gru_sequence")


def random_graph(draw, rng):
    """A small graph over (6, d) nodes: two input leaves, then ops drawn in
    turn, each reading earlier nodes and making new parameter leaves;
    the root is one ``fused`` projection of a few nodes."""
    nodes = [DiffTensor(rng.normal(size=(B_SIZE * T_LEN, d))) for d in (3, 2)]
    leaves = list(nodes)
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(OPS))
        x = nodes[draw(st.integers(0, len(nodes) - 1))]
        if op == "dense":
            width = draw(st.integers(1, 3))
            w = DiffTensor(rng.normal(size=(x.shape[1], width)))
            b = DiffTensor(rng.normal(size=width))
            leaves += [w, b]
            nodes.append(dense(x, w, b))
        elif op == "relu":
            nodes.append(relu(x))
        elif op == "concat":
            nodes.append(concat([x, nodes[draw(st.integers(0, len(nodes) - 1))]], axis=1))
        elif op == "take_rows":
            nodes.append(take_rows(x, rng.integers(0, x.shape[0], size=x.shape[0])))
        else:
            cell = GruCell(x.shape[1], draw(st.integers(1, 3)), Parameters(rng), "cell")
            leaves += cell.parameters()
            nodes.append(gru_sequence(cell, x, B_SIZE, T_LEN))
    picked = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3))
    read = [nodes[i] for i in picked]
    coeffs = [rng.normal(size=n.shape) for n in read]
    root = fused(sum(np.sum(c * n.data) for c, n in zip(coeffs, read)), list(zip(read, coeffs)))
    return root, leaves


def clear(leaves):
    for leaf in leaves:
        leaf.grad = None


class TestPrunedBackward:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_full_sweep_on_wrt_only(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        root, leaves = random_graph(data.draw, rng)
        wrt = [leaf for leaf in leaves if data.draw(st.booleans())]
        backward(root)
        full = [None if leaf.grad is None else leaf.grad.tobytes() for leaf in wrt]
        clear(leaves)
        backward(root, wrt=wrt)
        assert [None if leaf.grad is None else leaf.grad.tobytes() for leaf in wrt] == full
        kept = {id(leaf) for leaf in wrt}
        assert all(leaf.grad is None for leaf in leaves if id(leaf) not in kept)

    def test_inputs_and_frozen_layers_get_no_vjp(self):
        rng = np.random.default_rng(3)
        x = DiffTensor(rng.normal(size=(6, 3)))
        w1, b1, w2, b2 = (DiffTensor(rng.normal(size=s)) for s in ((3, 4), (4,), (4, 2), (2,)))
        hidden = relu(dense(x, w1, b1))
        out = dense(hidden, w2, b2)
        fired = []
        for node in (out, hidden, hidden._edges[0][0]):
            node._edges = tuple(
                (p, lambda g, f=f, p=p: (fired.append(p), f(g))[1]) for p, f in node._edges
            )
        root = fused(float(out.data.sum()), [(out, np.ones(out.shape))])
        backward(root, wrt=[w2, b2])
        assert [p for p in fired] == [w2, b2]
        assert hidden.grad is None and x.grad is None and w1.grad is None
        assert np.array_equal(b2.grad, np.full(2, 6.0))

    def test_unreachable_wrt_is_a_no_op(self):
        x, w = DiffTensor(np.ones((2, 2))), DiffTensor(np.ones(2))
        root = fused(1.0, [(x, np.ones((2, 2)))])
        backward(root, wrt=[w])
        assert x.grad is None and w.grad is None and root.grad is None

    def test_frozen_gru_runs_no_bptt(self, monkeypatch):
        rng = np.random.default_rng(4)
        cell = GruCell(3, 4, Parameters(rng), "cell")
        h = gru_sequence(cell, DiffTensor(rng.normal(size=(6, 3))), B_SIZE, T_LEN)
        w, b = DiffTensor(rng.normal(size=(4, 2))), DiffTensor(np.zeros(2))
        out = dense(h, w, b)
        root = fused(float(out.data.sum()), [(out, np.ones(out.shape))])
        calls = []
        h._edges = tuple((p, lambda g, f=f: calls.append(1) or f(g)) for p, f in h._edges)
        backward(root, wrt=[w, b])
        assert not calls and all(p.grad is None for p in cell.parameters())
        backward(root)
        assert len(calls) == 7


class TestDropout:
    def test_eval_mode_identity(self):
        x = as_tensor(np.arange(6.0).reshape(2, 3))
        assert dropout(x, 0.4, train=False) is x

    def test_zero_probability_identity(self):
        x = as_tensor(np.ones(4))
        assert dropout(x, 0.0, train=True) is x

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = as_tensor(np.ones((200,)))
        y = dropout(x, 0.25, train=True, rng=rng)
        survivors = y.data[y.data != 0.0]
        assert np.allclose(survivors, 1.0 / 0.75)
        # roughly a quarter dropped
        assert 0.1 < (y.data == 0.0).mean() < 0.4

    def test_gradient_matches_mask(self):
        rng = np.random.default_rng(1)
        x = as_tensor(np.ones((50,)))
        y = dropout(x, 0.5, train=True, rng=rng)
        backward(tsum(y))
        assert x.grad == pytest.approx(np.where(y.data != 0.0, 2.0, 0.0))

    def test_requires_rng_when_training(self):
        with pytest.raises(ConfigError):
            dropout(as_tensor(np.ones(3)), 0.5, train=True)

    def test_probability_range(self):
        with pytest.raises(ValueOutOfRange):
            dropout(as_tensor(np.ones(3)), 1.0, train=True)


class TestGru:
    def test_state_shapes(self):
        cell = GruCell(4, 6, Parameters(np.random.default_rng(0)), "cell")
        h = initial_state(cell, 3)
        assert h.shape == (3, 6)
        x = as_tensor(np.random.default_rng(1).normal(size=(3, 4)))
        h1 = gru_step(cell, x, h)
        assert h1.shape == (3, 6)
        assert np.all(np.abs(h1.data) <= 1.0)

    def test_parameter_names(self):
        param = Parameters(np.random.default_rng(0))
        cell = GruCell(4, 6, param, "enc")
        assert all(n.startswith("enc.") for n in param.named)
        assert list(param.named.values()) == cell.parameters()

    def test_unrolled_gradient(self):
        rng = np.random.default_rng(5)
        cell = GruCell(3, 4, Parameters(rng), "cell")
        xs = rng.normal(size=(2, 5, 3))

        def run(first_step):
            h = initial_state(cell, 5)
            seq = [as_tensor(first_step), as_tensor(xs[1])]
            for x in seq:
                h = gru_step(cell, x, h)
            return tsum(square(h))

        x0 = as_tensor(xs[0])
        h = initial_state(cell, 5)
        for x in (x0, as_tensor(xs[1])):
            h = gru_step(cell, x, h)
        backward(tsum(square(h)))
        numeric = numeric_grad(lambda v: float(run(v).data), xs[0])
        assert x0.grad == pytest.approx(numeric, abs=1e-6)


def sequence_grads(cell, x, b_size, t_len, weights, run=gru_sequence):
    """States and the gradients of x and the six cell parameters for the
    linear functional sum(states * weights)."""
    for p in [x] + cell.parameters():
        p.zero_grad()
    h = run(cell, x, b_size, t_len)
    backward(tsum(mul(h, as_tensor(weights))))
    return h.data.copy(), [p.grad.copy() for p in [x] + cell.parameters()]


class TestGruSequence:
    @pytest.mark.parametrize("b,t", [(1, 60), (5, 7), (3, 1)])
    def test_matches_step_chain(self, b, t):
        rng = np.random.default_rng(11)
        cell = GruCell(4, 6, Parameters(rng), "cell")
        x = as_tensor(rng.normal(size=(t * b, 4)))
        weights = rng.normal(size=(t * b, 6))
        fused_h, fused_grads = sequence_grads(cell, x, b, t, weights)
        step_h, step_grads = sequence_grads(
            cell, x, b, t, weights, run=lambda c, *a: recur_per_step([c], *a)
        )
        np.testing.assert_allclose(fused_h, step_h, rtol=1e-12)
        for got, want in zip(fused_grads, step_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_sequences_are_isolated(self):
        b, t = 4, 6
        rng = np.random.default_rng(12)
        cell = GruCell(3, 5, Parameters(rng), "cell")
        rows = rng.normal(size=(t * b, 3))
        bumped = rows.copy()
        bumped[2::b] += rng.normal(size=(t, 3))
        base = gru_sequence(cell, as_tensor(rows), b, t).data
        moved = gru_sequence(cell, as_tensor(bumped), b, t).data
        others = np.arange(t * b) % b != 2
        assert np.array_equal(base[others], moved[others])
        assert not np.array_equal(base[2::b], moved[2::b])

        x = as_tensor(rows)
        weights = np.zeros((t * b, 5))
        weights[0::b] = rng.normal(size=(t, 5))
        _, grads = sequence_grads(cell, x, b, t, weights)
        assert np.all(grads[0][2::b] == 0.0)
        assert np.all(grads[0][0::b] != 0.0)

    @pytest.mark.parametrize("shape,b,t", [((6, 3), 2, 2), ((6, 4), 2, 3), ((0, 3), 0, 1)])
    def test_shape_checked(self, shape, b, t):
        cell = GruCell(3, 5, Parameters(np.random.default_rng(0)), "cell")
        with pytest.raises(ShapeMismatch):
            gru_sequence(cell, as_tensor(np.zeros(shape)), b, t)


class TestGlorot:
    def test_bound_for_square_matrix(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform((4, 4), rng)
        assert w.shape == (4, 4)
        bound = np.sqrt(6.0 / 8.0)
        assert np.all(np.abs(w) <= bound)
        assert np.abs(w).max() > 0.5 * bound  # actually spans the range

    def test_explicit_fans(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform((10,), rng, fan_in=100, fan_out=100)
        assert np.all(np.abs(w) <= np.sqrt(6.0 / 200.0))

    def test_deterministic(self):
        a = glorot_uniform((3, 3), np.random.default_rng(9))
        b = glorot_uniform((3, 3), np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        w = as_tensor(np.array([0.0]))
        opt = Adam([w], lr=0.1)
        opt.zero_grad()
        backward(tsum(square(sub(w, as_tensor(3.0)))))
        opt.step()
        # bias correction makes the first update lr * sign(grad)
        assert abs(w.data[0]) == pytest.approx(0.1, rel=1e-6)

    def test_converges_on_quadratic(self):
        w = as_tensor(np.array([0.0]))
        opt = Adam([w], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            backward(tsum(square(sub(w, as_tensor(3.0)))))
            opt.step()
        assert abs(w.data[0] - 3.0) < 0.1

    def test_lr_writable(self):
        w = as_tensor(np.array([0.0]))
        opt = Adam([w], lr=0.5)
        opt.lr *= 0.1
        assert opt.lr == pytest.approx(0.05)

    def test_shape_guard(self):
        w = as_tensor(np.zeros((2, 2)))
        opt = Adam([w])
        w.grad = np.zeros(3)
        with pytest.raises(ShapeMismatch):
            opt.step()

    SHAPES = [(3, 4), (5,), (), (2, 1, 3), (1, 1)]

    def make_params(self):
        rng = np.random.default_rng(11)
        return [DiffTensor(rng.normal(size=s)) for s in self.SHAPES]

    @staticmethod
    def gradients(rng, params):
        """Normal draws with exact zeros and negative zeros mixed in."""
        out = []
        for p in params:
            g, u = rng.normal(size=p.shape), rng.random(size=p.shape)
            out.append(np.where(u < 0.2, 0.0, np.where(u < 0.35, -0.0, g)))
        return out

    @pytest.mark.parametrize("subset", [None, [1, 3, 4]])
    def test_matches_per_parameter_loop(self, subset):
        ours, ref = self.make_params(), self.make_params()
        frozen = [p.data.copy() for p in ours]
        pick = range(len(ours)) if subset is None else subset
        opt = Adam([ours[i] for i in pick], lr=0.01)
        oracle = LoopAdam([ref[i] for i in pick], lr=0.01)
        rng = np.random.default_rng(3)
        for step in range(100):
            if step == 40:
                opt.lr = oracle.lr = 0.003
            for i, g in zip(pick, self.gradients(rng, [ours[i] for i in pick])):
                ours[i].grad[...] = g
                ref[i].grad = g.copy()
            opt.step()
            oracle.step()
            for i in pick:
                assert np.array_equal(ours[i].data, ref[i].data), (step, i)
        for i in set(range(len(ours))) - set(pick):
            assert np.array_equal(ours[i].data, frozen[i])
        assert np.array_equal(np.concatenate([m.ravel() for m in oracle._m]), opt._m)
        assert np.array_equal(np.concatenate([v.ravel() for v in oracle._v]), opt._v)

    def test_parameters_view_the_store(self):
        params = self.make_params()
        values = [p.data.copy() for p in params]
        opt = Adam(params)
        for p, value in zip(params, values):
            assert np.shares_memory(p.data, opt._data) and np.shares_memory(p.grad, opt._grad)
            assert np.array_equal(p.data, value) and p.grad.shape == value.shape
        for p in params:
            p.grad += 1.5
        opt.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in params)

    def test_gradients_land_in_the_store(self):
        x, w, b = as_tensor(np.ones((4, 3))), as_tensor(np.ones((3, 2))), as_tensor(np.zeros(2))
        opt = Adam([w, b])
        opt.zero_grad()
        backward(tsum(dense(x, w, b)))
        assert np.array_equal(opt._grad, np.concatenate([np.full(6, 4.0), np.full(2, 4.0)]))

    @pytest.mark.parametrize("attr", ["data", "grad"])
    def test_rebound_parameter_is_refused(self, attr):
        params = self.make_params()
        opt = Adam(params)
        setattr(params[2], attr, getattr(params[2], attr).copy())
        with pytest.raises(ShapeMismatch):
            opt.step()

    def test_deterministic(self):
        def run():
            w = as_tensor(np.array([1.0, -2.0]))
            opt = Adam([w], lr=0.05)
            for _ in range(25):
                opt.zero_grad()
                backward(tsum(sub(mul(mul(mul(w, w), w), w), w)))
                opt.step()
            return w.data.copy()

        assert np.array_equal(run(), run())


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        params = {
            "layer.w": np.arange(6.0).reshape(2, 3),
            "layer.b": DiffTensor(np.array([0.25, -1.5])),
            "scalar": np.float64(3.5),
            "empty": np.zeros((0, 3)),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        assert np.array_equal(loaded["layer.w"], params["layer.w"])
        assert np.array_equal(loaded["layer.b"], params["layer.b"].data)
        assert loaded["scalar"] == 3.5 and loaded["scalar"].shape == ()
        assert loaded["empty"].shape == (0, 3)
        for arr in loaded.values():
            assert arr.dtype == np.float64 and arr.flags.writeable

    def test_bytes_stable_across_saves(self, tmp_path):
        params = {"b": np.ones(3), "a": np.zeros((2, 2))}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(p1, params)
        save_checkpoint(p2, dict(reversed(list(params.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(4)})
        before = path.read_bytes()
        # the too-long name sorts after "a", so the save fails mid-write
        with pytest.raises(BadCheckpoint, match="bad parameter name"):
            save_checkpoint(path, {"a": np.zeros(3), "z" * 0x10000: np.ones(2)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(4)})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)
