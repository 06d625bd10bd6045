import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gopnet.errors import DimensionMismatch, SingularSystem
from gopnet.ridge import (
    Metric,
    evaluate_candidate,
    solve_augmented,
    solve_ridge,
)


def ridge_oracle(H, Y, c):
    """Independent ridge solve: least squares on the stacked system
    [H; sqrt(c) I] B = [Y; 0], solved by numpy's QR/SVD lstsq."""
    n, d = H.shape
    A = np.vstack([H, np.sqrt(c) * np.eye(d)])
    rhs = np.vstack([Y, np.zeros((d, Y.shape[1]))])
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


def training_mse(H, Y, B):
    return float(np.mean((H @ B - Y) ** 2))


class TestSolveRidge:
    def test_identity_no_regularization(self):
        B = solve_ridge(np.eye(2), np.eye(2), 0.0)
        assert_allclose(B, np.eye(2), atol=1e-12)

    def test_identity_with_unit_ridge_halves_targets(self, rng):
        Y = rng.normal(size=(2, 3))
        assert_allclose(solve_ridge(np.eye(2), Y, 1.0), Y / 2.0, atol=1e-12)

    def test_matches_independent_solver(self, rng):
        H = rng.normal(size=(30, 7))
        Y = rng.normal(size=(30, 3))
        B = solve_ridge(H, Y, 0.1)
        assert np.abs(B - ridge_oracle(H, Y, 0.1)).max() < 1e-8

    @pytest.mark.parametrize("shape", [(25, 6), (6, 25), (12, 12)])
    def test_both_branches_match_oracle(self, shape, rng):
        for trial in range(10):
            H = rng.normal(size=shape)
            Y = rng.normal(size=(shape[0], 2))
            c = [0.01, 0.1, 1.0][trial % 3]
            assert np.abs(solve_ridge(H, Y, c) - ridge_oracle(H, Y, c)).max() < 1e-8

    def test_primal_dual_symmetry_on_square_system(self, rng):
        H = rng.normal(size=(20, 20))
        Y = rng.normal(size=(20, 4))
        c = 1e-3
        primal = np.linalg.solve(H.T @ H + c * np.eye(20), H.T @ Y)
        dual = H.T @ np.linalg.solve(H @ H.T + c * np.eye(20), Y)
        assert np.abs(primal - dual).max() < 1e-8
        assert np.abs(solve_ridge(H, Y, c) - primal).max() < 1e-8

    def test_unregularized_rank_deficient_raises(self, rng):
        col = rng.normal(size=(10, 1))
        H = np.hstack([col, col])
        with pytest.raises(SingularSystem):
            solve_ridge(H, rng.normal(size=(10, 2)), 0.0)

    def test_wide_full_row_rank_solves_min_norm(self, rng):
        H = rng.normal(size=(5, 12))
        Y = rng.normal(size=(5, 2))
        B = solve_ridge(H, Y, 0.0)
        assert np.abs(H @ B - Y).max() < 1e-9  # interpolates
        assert np.abs(B - np.linalg.pinv(H) @ Y).max() < 1e-9

    def test_row_count_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            solve_ridge(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)), 1.0)

    def test_monotone_training_mse_in_c(self, rng):
        H = rng.normal(size=(40, 10))
        Y = rng.normal(size=(40, 3))
        errors = [training_mse(H, Y, solve_ridge(H, Y, c))
                  for c in (0.0, 0.1, 1.0, 10.0, 100.0)]
        assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


class TestSolveAugmented:
    def test_empty_existing_equals_plain_solve(self, rng):
        H = rng.normal(size=(12, 4))
        Y = rng.normal(size=(12, 2))
        for empty in (None, np.empty((12, 0))):
            assert_array_equal(solve_augmented(empty, H, Y, 0.5),
                               solve_ridge(H, Y, 0.5))

    def test_zero_column_addition(self, rng):
        H = rng.normal(size=(12, 4))
        Y = rng.normal(size=(12, 2))
        B = solve_augmented(H, np.empty((12, 0)), Y, 0.5)
        assert_allclose(B, solve_ridge(H, Y, 0.5), atol=1e-12)

    def test_duplicated_columns(self, rng):
        H = rng.normal(size=(15, 3))
        Y = rng.normal(size=(15, 2))
        B = solve_augmented(H, H.copy(), Y, 1.0)
        assert np.isfinite(B).all()
        with pytest.raises(SingularSystem):
            solve_augmented(H, H.copy(), Y, 0.0)

    def test_split_equals_unsplit(self, rng):
        H = rng.normal(size=(40, 10))
        Y = rng.normal(size=(40, 3))
        B_whole = solve_ridge(H, Y, 0.3)
        B_split = solve_augmented(H[:, :6], H[:, 6:], Y, 0.3)
        assert np.abs(B_whole - B_split).max() < 1e-10

    def test_row_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            solve_augmented(rng.normal(size=(5, 2)),
                            rng.normal(size=(6, 2)),
                            rng.normal(size=(5, 2)), 1.0)

    def test_adding_columns_never_hurts_unregularized_fit(self, rng):
        for _ in range(10):
            H = rng.normal(size=(30, 8))
            Y = rng.normal(size=(30, 2))
            base = training_mse(H[:, :5], Y, solve_ridge(H[:, :5], Y, 0.0))
            grown = training_mse(H, Y, solve_augmented(H[:, :5], H[:, 5:], Y, 0.0))
            assert grown <= base + 1e-10


class TestEvaluateCandidate:
    def test_separable_blobs_reach_perfect_accuracy(self, rng):
        n = 60
        H = np.vstack([rng.normal(size=(n // 2, 3)) - 4.0,
                       rng.normal(size=(n // 2, 3)) + 4.0])
        H = (H - H.mean(axis=0)) / H.std(axis=0)
        Y = np.zeros((n, 2))
        Y[:n // 2, 0] = 1.0
        Y[n // 2:, 1] = 1.0
        result = evaluate_candidate(H, Y, (0.1, 1.0, 10.0), Metric.ACCURACY)
        assert result.score == 1.0

    def test_constant_target_column_error_is_analytic(self, rng):
        # standardized H has zero column means, so the fitted predictions of a
        # constant target column are exactly zero and its error is k^2
        H = rng.normal(size=(50, 6))
        H = (H - H.mean(axis=0)) / H.std(axis=0)
        k = 0.7
        Y = np.full((50, 1), k)
        result = evaluate_candidate(H, Y, (0.5,), Metric.MSE)
        assert np.abs(result.B).max() < 1e-12
        assert_allclose(result.score, k * k, rtol=1e-12)

    def test_single_grid_value_matches_solve_ridge(self, rng):
        H = rng.normal(size=(25, 5))
        Y = rng.normal(size=(25, 2))
        result = evaluate_candidate(H, Y, (1.0,), Metric.MSE)
        B = solve_ridge(H, Y, 1.0)
        assert_array_equal(result.B, B)
        assert result.best_c == 1.0
        assert_allclose(result.score, training_mse(H, Y, B), rtol=1e-15)

    def test_scores_on_validation_split_when_given(self, rng):
        H = rng.normal(size=(30, 4))
        Y = rng.normal(size=(30, 2))
        H_val = rng.normal(size=(10, 4))
        Y_val = rng.normal(size=(10, 2))
        result = evaluate_candidate(H, Y, (1.0,), Metric.MSE, H_val, Y_val)
        B = solve_ridge(H, Y, 1.0)
        assert_allclose(result.score, training_mse(H_val, Y_val, B), rtol=1e-15)

    def test_ties_break_toward_larger_c(self):
        # zero targets give B = 0 and identical scores for every c
        H = np.eye(3)
        Y = np.zeros((3, 2))
        result = evaluate_candidate(H, Y, (0.1, 1.0, 10.0), Metric.MSE)
        assert result.best_c == 10.0

    def test_propagates_failure_only_when_all_fail(self, rng):
        col = rng.normal(size=(10, 1))
        H = np.hstack([col, col])  # rank deficient
        Y = rng.normal(size=(10, 2))
        result = evaluate_candidate(H, Y, (0.0, 1.0), Metric.MSE)
        assert result.best_c == 1.0
        with pytest.raises(SingularSystem):
            evaluate_candidate(H, Y, (0.0,), Metric.MSE)

    def test_grid_order_does_not_change_result(self, rng):
        H = rng.normal(size=(20, 6))
        Y = rng.normal(size=(20, 2))
        a = evaluate_candidate(H, Y, (0.1, 1.0, 10.0), Metric.MSE)
        b = evaluate_candidate(H, Y, (10.0, 1.0, 0.1), Metric.MSE)
        assert a.best_c == b.best_c
        assert_array_equal(a.B, b.B)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           d=st.integers(1, 12), classes=st.integers(1, 3),
           grid=st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]),
                         min_size=1, max_size=4),
           metric=st.sampled_from(Metric), validate=st.booleans())
    @example(seed=0, n=8, d=3, classes=2, grid=[0.0, 0.1, 1.0],
             metric=Metric.MSE, validate=False)  # primal form
    @example(seed=0, n=3, d=8, classes=2, grid=[0.0, 0.1, 1.0],
             metric=Metric.ACCURACY, validate=True)  # dual form
    @settings(max_examples=80, deadline=None)
    def test_one_gram_gives_the_bits_of_a_solve_per_c(
            self, seed, n, d, classes, grid, metric, validate):
        rng = np.random.default_rng(seed)
        H, Y = rng.normal(size=(n, d)), rng.normal(size=(n, classes))
        H_val, Y_val = ((rng.normal(size=(5, d)), rng.normal(size=(5, classes)))
                        if validate else (None, None))
        H_score, Y_score = (H_val, Y_val) if validate else (H, Y)
        best = None  # (score, c, B) of evaluate_candidate, one solve per c
        for c in grid:
            try:
                B = solve_ridge(H, Y, c)
            except SingularSystem:
                continue
            P = H_score @ B
            score = (float(np.mean((P - Y_score) ** 2)) if metric is Metric.MSE
                     else float(np.mean(P.argmax(axis=1) == Y_score.argmax(axis=1))))
            if np.isfinite(B).all() and np.isfinite(score) and (
                    best is None or metric.better(score, best[0])
                    or (score == best[0] and c > best[1])):
                best = (score, c, B)
        if best is None:
            with pytest.raises(SingularSystem):
                evaluate_candidate(H, Y, grid, metric, H_val, Y_val)
            return
        result = evaluate_candidate(H, Y, grid, metric, H_val, Y_val)
        bits = np.array([result.score, result.best_c]).view(np.uint64)
        assert_array_equal(bits, np.array(best[:2], dtype=float).view(np.uint64))
        assert_array_equal(result.B.view(np.uint64), best[2].view(np.uint64))
