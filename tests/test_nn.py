import numpy as np
import pytest

from tandemopt.nn import (
    Activation,
    Direction,
    NonFiniteGradientError,
    Scorer,
    finite_diff_check,
)


def scalar_scorer(w, b):
    """Single linear layer with explicit parameters."""
    return Scorer(
        [len(w), 1],
        Activation.TANH,
        [np.asarray([w], dtype=np.float64)],
        [np.asarray([b], dtype=np.float64)],
    )


def oracle_forward(scorer, x):
    """Independent straightforward re-implementation of the forward pass."""
    a = np.asarray(x, dtype=np.float64)
    for i in range(scorer.n_layers):
        z = scorer.weights[i] @ a + scorer.biases[i]
        if i < scorer.n_layers - 1:
            a = np.tanh(z) if scorer.activation is Activation.TANH else np.maximum(z, 0)
        else:
            a = z
    return float(a[0])


class TestForward:
    def test_zero_parameters_score_zero(self):
        s = Scorer(
            [3, 2, 1],
            Activation.TANH,
            [np.zeros((2, 3)), np.zeros((1, 2))],
            [np.zeros(2), np.zeros(1)],
        )
        score, _ = s.forward(np.array([1.0, -2.0, 3.0]))
        assert score == 0.0

    def test_single_linear_layer_dot_product(self):
        s = scalar_scorer([1.0, 2.0], 0.0)
        score, _ = s.forward(np.array([3.0, 4.0]))
        assert score == pytest.approx(11.0)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(0)
        for act in Activation:
            s = Scorer.create([4, 5, 1], act, seed=int(rng.integers(1000)))
            for _ in range(10):
                x = rng.standard_normal(4)
                score, _ = s.forward(x)
                assert score == pytest.approx(oracle_forward(s, x), rel=1e-12)

    def test_dimension_mismatch(self):
        s = Scorer.create([3, 2, 1], seed=0)
        with pytest.raises(ValueError, match="shape"):
            s.forward(np.zeros(4))

    def test_non_finite_input(self):
        s = Scorer.create([2, 1], seed=0)
        with pytest.raises(ValueError, match="finite"):
            s.forward(np.array([1.0, np.inf]))

    def test_output_dim_must_be_one(self):
        with pytest.raises(ValueError, match="output"):
            Scorer.create([3, 2], seed=0)


class TestBackward:
    def test_zero_upstream_leaves_tape_unchanged(self):
        s = Scorer.create([3, 4, 1], seed=1)
        tape = s.new_tape()
        _, cache = s.forward(np.ones(3))
        s.backward(cache, 0.0, tape)
        assert all(np.all(g == 0) for g in tape.d_weights + tape.d_biases)

    def test_linear_layer_gradient_is_input(self):
        s = scalar_scorer([0.3, -0.7], 0.1)
        tape = s.new_tape()
        x = np.array([3.0, 4.0])
        _, cache = s.forward(x)
        s.backward(cache, 1.0, tape)
        assert np.allclose(tape.d_weights[0], [x])
        assert np.allclose(tape.d_biases[0], [1.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for act in Activation:
            scorer = Scorer.create([5, 6, 1], act, seed=11)
            x = rng.standard_normal(5)
            upstream = float(rng.normal())

            def loss(s, tape):
                score, cache = s.forward(x)
                if tape is not None:
                    s.backward(cache, upstream, tape)
                return upstream * score

            assert finite_diff_check(scorer, loss) < 1e-5

    def test_accumulation_adds_up(self):
        s = scalar_scorer([1.0, 1.0], 0.0)
        tape = s.new_tape()
        x = np.array([1.0, 2.0])
        for _ in range(3):
            _, cache = s.forward(x)
            s.backward(cache, 1.0, tape)
        assert np.allclose(tape.d_weights[0], [3 * x])

    def test_stale_cache_rejected(self):
        s = Scorer.create([2, 1], seed=0)
        tape = s.new_tape()
        _, cache = s.forward(np.ones(2))
        s.sgd_step(tape, 0.1, Direction.DESCENT)
        with pytest.raises(ValueError, match="stale"):
            s.backward(cache, 1.0, s.new_tape())


class TestBatch:
    def test_matrix_forward_matches_oracle_and_per_row_forward(self):
        rng = np.random.default_rng(20)
        for act in Activation:
            s = Scorer.create([4, 5, 1], act, seed=21)
            x = rng.standard_normal((37, 4))
            scores, _ = s.forward_batch(x)
            assert scores.shape == (37,)
            for row, score in zip(x, scores):
                assert score == pytest.approx(oracle_forward(s, row), rel=1e-12)
                assert score == pytest.approx(s.forward(row)[0], rel=1e-12)

    def test_batched_backward_is_sum_of_per_example_backwards(self):
        rng = np.random.default_rng(22)
        for act in Activation:
            s = Scorer.create([4, 5, 1], act, seed=23)
            x = rng.standard_normal((29, 4))
            upstream = rng.standard_normal(29)
            batched = s.new_tape()
            _, cache = s.forward_batch(x)
            s.backward_batch(cache, upstream, batched)
            summed = s.new_tape()
            for row, g in zip(x, upstream):
                _, row_cache = s.forward(row)
                s.backward(row_cache, float(g), summed)
            for got, want in zip(
                batched.d_weights + batched.d_biases, summed.d_weights + summed.d_biases
            ):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_stale_batch_cache_rejected(self):
        s = Scorer.create([2, 3, 1], seed=0)
        _, cache = s.forward_batch(np.ones((4, 2)))
        s.sgd_step(s.new_tape(), 0.1, Direction.DESCENT)
        with pytest.raises(ValueError, match="stale"):
            s.backward_batch(cache, np.ones(4), s.new_tape())

    def test_other_scorers_batch_cache_rejected(self):
        a = Scorer.create([2, 3, 1], seed=0)
        b = a.clone()
        _, cache = a.forward_batch(np.ones((4, 2)))
        with pytest.raises(ValueError, match="mismatched"):
            b.backward_batch(cache, np.ones(4), b.new_tape())

    def test_matrix_shape_and_finiteness_checked(self):
        s = Scorer.create([3, 2, 1], seed=0)
        with pytest.raises(ValueError, match="shape"):
            s.forward_batch(np.zeros((5, 4)))
        with pytest.raises(ValueError, match="shape"):
            s.forward_batch(np.zeros(3))
        x = np.zeros((5, 3))
        x[4, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            s.forward_batch(x)


class TestSgdStep:
    def test_zero_lr_keeps_parameters(self):
        s = Scorer.create([2, 3, 1], seed=2)
        before = [w.copy() for w in s.weights]
        tape = s.new_tape()
        _, cache = s.forward(np.ones(2))
        s.backward(cache, 1.0, tape)
        s.sgd_step(tape, 0.0, Direction.DESCENT)
        assert all(np.array_equal(a, b) for a, b in zip(before, s.weights))

    def test_ascent_arithmetic(self):
        s = scalar_scorer([1.0], 0.0)
        tape = s.new_tape()
        tape.d_weights[0][0, 0] = 2.0
        s.sgd_step(tape, 0.1, Direction.ASCENT)
        assert s.weights[0][0, 0] == pytest.approx(1.2)
        assert tape.d_weights[0][0, 0] == 0.0  # tape zeroed

    def test_two_steps_equal_one_summed_step_for_linear_model(self):
        x1, x2 = np.array([1.0, 2.0]), np.array([-0.5, 3.0])
        a = scalar_scorer([0.1, 0.2], 0.0)
        b = scalar_scorer([0.1, 0.2], 0.0)
        # two separate descent steps on a
        for x in (x1, x2):
            tape = a.new_tape()
            _, cache = a.forward(x)
            a.backward(cache, 1.0, tape)
            a.sgd_step(tape, 0.05, Direction.DESCENT)
        # one step with both gradients accumulated on b (gradients of a linear
        # score do not depend on the parameters, so the updates commute)
        tape = b.new_tape()
        for x in (x1, x2):
            _, cache = b.forward(x)
            b.backward(cache, 1.0, tape)
        b.sgd_step(tape, 0.05, Direction.DESCENT)
        assert np.allclose(a.weights[0], b.weights[0])

    def test_non_finite_gradient_reports_parameter(self):
        s = Scorer.create([2, 2, 1], seed=3)
        tape = s.new_tape()
        tape.d_weights[1][0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError, match="layer 1 weights"):
            s.sgd_step(tape, 0.1, Direction.DESCENT)


class TestFiniteDiffCheck:
    def test_quadratic_loss_is_near_exact(self):
        scorer = scalar_scorer([1.0], 0.5)

        def loss(s, tape):
            # (w - 3)^2 + b^2 on the single linear layer
            w = s.weights[0][0, 0]
            b = s.biases[0][0]
            if tape is not None:
                tape.d_weights[0][0, 0] += 2 * (w - 3)
                tape.d_biases[0][0] += 2 * b
            return (w - 3) ** 2 + b**2

        assert finite_diff_check(scorer, loss) < 1e-8


class TestDeterminismAndSerialization:
    def test_same_seed_same_parameters(self):
        a = Scorer.create([4, 16, 1], seed=42)
        b = Scorer.create([4, 16, 1], seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))

    def test_init_respects_bound(self):
        s = Scorer.create([16, 16, 1], seed=0)
        bound = 1.0 / np.sqrt(16)
        assert np.all(np.abs(s.weights[0]) <= bound)
        assert np.all(np.abs(s.biases[0]) <= bound)

    def test_json_round_trip_bit_exact(self):
        import json

        s = Scorer.create([3, 5, 1], Activation.RELU, seed=9)
        payload = json.loads(json.dumps(s.to_json_dict()))
        restored = Scorer.from_json_dict(payload)
        assert restored.layer_sizes == s.layer_sizes
        assert restored.activation is s.activation
        assert all(np.array_equal(a, b) for a, b in zip(restored.weights, s.weights))
        x = np.array([0.3, -0.2, 0.9])
        assert restored.forward(x)[0] == s.forward(x)[0]

    def test_param_count(self):
        s = Scorer.create([8, 16, 1], seed=0)
        assert s.param_count() == 8 * 16 + 16 + 16 + 1
