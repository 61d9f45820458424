"""Tests for repro.core.evaluation (faithfulness, stability, agreement,
axioms)."""

import warnings

import numpy as np
import pytest

from repro.core.evaluation import (
    agreement_matrix,
    check_dummy,
    check_efficiency,
    check_symmetry,
    deletion_curve,
    explanation_variance,
    faithfulness_report,
    input_stability,
    insertion_curve,
    kendall_tau,
    normalized_auc,
    spearman_correlation,
    topk_jaccard,
)
from repro.core.explainers import LinearShapExplainer, model_output_fn
from repro.ml import LinearRegression


@pytest.fixture(scope="module")
def linear_model_setup():
    gen = np.random.default_rng(0)
    X = gen.normal(size=(200, 5))
    coef = np.array([3.0, -2.0, 1.0, 0.1, 0.0])
    y = X @ coef
    model = LinearRegression().fit(X, y)
    return X, coef, model, model_output_fn(model)


class TestDeletionInsertion:
    def test_deletion_collapses_to_baseline_prediction(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        baseline = X.mean(axis=0)
        attributions = coef * (X[0] - baseline)
        curve = deletion_curve(fn, X[0], attributions, baseline)
        assert curve.scores[0] == pytest.approx(float(fn(X[:1])[0]))
        assert curve.scores[-1] == pytest.approx(
            float(fn(baseline.reshape(1, -1))[0])
        )

    def test_insertion_starts_at_baseline(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        baseline = X.mean(axis=0)
        attributions = coef * (X[0] - baseline)
        curve = insertion_curve(fn, X[0], attributions, baseline)
        assert curve.scores[0] == pytest.approx(
            float(fn(baseline.reshape(1, -1))[0])
        )
        assert curve.scores[-1] == pytest.approx(float(fn(X[:1])[0]))

    def test_true_ranking_beats_reversed_ranking(self, linear_model_setup):
        """Deleting truly-important features first moves the score
        faster: normalized AUC closer to the immediate-step value."""
        X, coef, model, fn = linear_model_setup
        baseline = X.mean(axis=0)
        x = X[np.argmax(np.abs(X[:, 0]))]  # strong feature-0 signal
        true_attr = coef * (x - baseline)
        reversed_attr = 1.0 / (np.abs(true_attr) + 1e-6)
        auc_true = normalized_auc(
            deletion_curve(fn, x, true_attr, baseline)
        )
        auc_rev = normalized_auc(
            deletion_curve(fn, x, reversed_attr, baseline)
        )
        assert auc_true > auc_rev

    def test_fractions_monotone(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        curve = deletion_curve(
            fn, X[0], coef, X.mean(axis=0), n_steps=10
        )
        assert np.all(np.diff(curve.fractions) > 0)
        assert curve.fractions[0] == 0.0
        assert curve.fractions[-1] == 1.0

    def test_length_mismatch_rejected(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        with pytest.raises(ValueError, match="mismatch"):
            deletion_curve(fn, X[0], coef[:3], X.mean(axis=0))

    def test_normalized_auc_flat_curve_zero(self):
        from repro.core.evaluation.faithfulness import PerturbationCurve

        curve = PerturbationCurve(
            fractions=np.linspace(0, 1, 5),
            scores=np.full(5, 2.0),
            kind="deletion",
        )
        assert normalized_auc(curve) == 0.0

    def test_faithfulness_report_keys(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        baseline = X.mean(axis=0)
        explainer = LinearShapExplainer(model, X)
        attrs = [explainer.explain(x).values for x in X[:5]]
        report = faithfulness_report(
            fn, X[:5], attrs, baseline, random_state=0
        )
        assert set(report) >= {
            "deletion_auc", "insertion_auc", "random_deletion_auc",
        }
        assert report["n_instances"] == 5


class TestStability:
    def test_linear_explainer_perfectly_stable_ranking(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        explainer = LinearShapExplainer(model, X)
        stats = input_stability(
            lambda x: explainer.explain(x).values,
            X[0],
            noise_scale=0.01,
            n_repeats=4,
            random_state=0,
        )
        # linear attributions move exactly with the input: Lipschitz
        # constant = |coef| in each coordinate, cosine stays ~1
        assert stats["mean_cosine"] > 0.99
        assert stats["lipschitz_estimate"] <= np.abs(coef).max() + 1e-6

    def test_zero_noise_zero_distance(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        explainer = LinearShapExplainer(model, X)
        stats = input_stability(
            lambda x: explainer.explain(x).values,
            X[0], noise_scale=0.0, n_repeats=3, random_state=0,
        )
        assert stats["mean_l2"] == pytest.approx(0.0)

    def test_explanation_variance_of_deterministic_explainer(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        explainer = LinearShapExplainer(model, X)

        def factory(rng):
            return lambda x: explainer.explain(x).values

        stats = explanation_variance(factory, X[0], n_repeats=3, random_state=0)
        assert stats["mean_std"] == pytest.approx(0.0)

    def test_validation(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        explainer = LinearShapExplainer(model, X)
        with pytest.raises(ValueError, match="n_repeats"):
            input_stability(
                lambda x: explainer.explain(x).values, X[0], n_repeats=1
            )


class TestAgreement:
    def test_identical_vectors_perfect_agreement(self):
        a = np.array([3.0, -1.0, 0.5, 0.2])
        assert spearman_correlation(a, a) == pytest.approx(1.0)
        assert kendall_tau(a, a) == pytest.approx(1.0)
        assert topk_jaccard(a, a, k=2) == 1.0

    def test_sign_insensitivity_with_abs(self):
        a = np.array([3.0, -1.0, 0.5])
        b = np.array([-3.0, 1.0, -0.5])
        assert spearman_correlation(a, b, by_abs=True) == pytest.approx(1.0)

    def test_reversed_ranking_negative_correlation(self):
        a = np.array([4.0, 3.0, 2.0, 1.0])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_correlation(a, b) == pytest.approx(-1.0)

    def test_disjoint_topk_zero_jaccard(self):
        a = np.array([1.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0, 1.0])
        assert topk_jaccard(a, b, k=2) == 0.0

    def test_agreement_matrix_structure(self):
        sets = {
            "m1": np.array([3.0, 2.0, 1.0]),
            "m2": np.array([3.1, 2.1, 0.9]),
            "m3": np.array([1.0, 2.0, 3.0]),
        }
        names, matrix = agreement_matrix(sets, measure="spearman")
        assert names == ["m1", "m2", "m3"]
        np.testing.assert_allclose(np.diag(matrix), 1.0)
        np.testing.assert_allclose(matrix, matrix.T)
        assert matrix[0, 1] > matrix[0, 2]

    def test_agreement_matrix_multi_instance(self):
        gen = np.random.default_rng(0)
        sets = {
            "a": gen.normal(size=(4, 6)),
            "b": gen.normal(size=(4, 6)),
        }
        _, matrix = agreement_matrix(sets, measure="jaccard", k=2)
        assert matrix.shape == (2, 2)

    def test_mismatched_instances_rejected(self):
        with pytest.raises(ValueError, match="same instances"):
            agreement_matrix(
                {"a": np.zeros((2, 3)), "b": np.zeros((3, 3))}
            )

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            agreement_matrix({"a": np.zeros(3)}, measure="euclid")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            spearman_correlation([1.0, 2.0], [1.0])

    # (a, b, by_abs, spearman, kendall): tie-heavy vectors, values
    # recorded from scipy.stats.spearmanr / kendalltau (scipy 1.17.1).
    TIE_PINS = [
        ([0.0, 0.0, 0.0, 0.4, 0.1, 0.0, 0.2, 0.0],
         [0.0, 0.0, 0.5, 0.3, 0.0, 0.0, 0.2, 0.1], True,
         0.3632738710744352, 0.35176323534072423),
        ([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0],
         [2.0, 2.0, 1.0, 3.0, 4.0, 4.0, 4.0], True,
         0.8333333333333334, 0.7058823529411764),
        ([-0.5, 0.5, 0.2, -0.2, 0.0, 1.0, -1.0],
         [0.5, 0.1, -0.2, 0.2, 0.0, -1.0, 0.3], True,
         0.7593894812410521, 0.6324555320336759),
        ([-0.5, 0.5, 0.2, -0.2, 0.0, 1.0, -1.0],
         [0.5, 0.1, -0.2, 0.2, 0.0, -1.0, 0.3], False,
         -0.8571428571428573, -0.7142857142857143),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7],
         [0.3, 0.0, 0.3, 0.0, 0.3, 0.0, 0.3], True,
         0.35355339059327373, 0.35355339059327384),
        ([0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.0, 0.0, 0.1],
         [0.3, 0.3, 0.1, 0.0, 0.0, 0.2, 0.2, 0.1, 0.3], True,
         -0.3185840707964601, -0.2333333333333333),
    ]

    @pytest.mark.parametrize("a, b, by_abs, rho, tau", TIE_PINS)
    def test_tie_heavy_values_pinned_exactly(self, a, b, by_abs, rho, tau):
        # Exact equality: these values feed the search score and the
        # report goldens, so a last-ulp change is a behaviour change.
        assert spearman_correlation(a, b, by_abs=by_abs) == rho
        assert kendall_tau(a, b, by_abs=by_abs) == tau

    @pytest.mark.parametrize(
        "a",
        [np.zeros(6), np.full(6, 0.25), np.array([-0.3, 0.3] * 3),
         np.array([0.1, np.nan, 0.3, 0.2, 0.0, 0.5])],
    )
    def test_undefined_correlation_is_zero_without_warning(self, a):
        b = np.arange(6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (spearman_correlation, kendall_tau):
                assert fn(a, b) == 0.0
                assert fn(b, a) == 0.0


class TestAxioms:
    def test_efficiency_check(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        e = LinearShapExplainer(model, X).explain(X[0])
        result = check_efficiency(e)
        assert result["passed"]
        assert result["gap"] < 1e-9

    def test_symmetry_check(self):
        def explain(x):
            # toy symmetric attribution
            return np.array([x[0], x[1], 0.0])

        result = check_symmetry(explain, np.array([1.0, 1.0, 5.0]), 0, 1)
        assert result["passed"]

    def test_symmetry_requires_equal_inputs(self):
        with pytest.raises(ValueError, match="requires"):
            check_symmetry(lambda x: x, np.array([1.0, 2.0]), 0, 1)

    def test_dummy_check(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        explainer = LinearShapExplainer(model, X)
        # coef[4] is exactly zero
        result = check_dummy(
            lambda x: explainer.explain(x).values, X[0], [4], atol=1e-6
        )
        assert result["passed"]

    def test_dummy_check_fails_on_relevant_feature(self, linear_model_setup):
        X, coef, model, fn = linear_model_setup
        explainer = LinearShapExplainer(model, X)
        x = X[np.argmax(np.abs(X[:, 0]))]
        result = check_dummy(
            lambda z: explainer.explain(z).values, x, [0], atol=1e-6
        )
        assert not result["passed"]

    def test_dummy_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_dummy(lambda x: x, np.ones(2), [])
