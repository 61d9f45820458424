"""E1 (Table 1) — model quality on the SLA-violation forecasting task.

Regenerates the paper's model-comparison table: five standard model
families trained on NFV telemetry at epoch t to predict the SLA check
at t+1.  Expected shape: tree ensembles > MLP > linear/NB baselines
(the telemetry-to-violation map is nonlinear and interaction-heavy).

The pytest-benchmark timings cover single-epoch inference — the number
an online monitoring plane cares about.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro.core.matrix import default_model_factories
from repro.ml import (
    GaussianNB,
    GradientBoostingClassifier,
    MLPClassifier,
    RandomForestClassifier,
)
from repro.ml.metrics import accuracy_score, f1_score, roc_auc_score
from repro.ml.preprocessing import StandardScaler

MODELS = {
    "logistic_regression": default_model_factories()["logistic_regression"],
    "gaussian_nb": lambda: GaussianNB(),
    "random_forest": lambda: RandomForestClassifier(
        n_estimators=60, max_depth=10, random_state=0
    ),
    "gradient_boosting": lambda: GradientBoostingClassifier(
        n_estimators=80, max_depth=3, learning_rate=0.2, random_state=0
    ),
    "mlp": lambda: MLPClassifier(
        hidden_layer_sizes=(64, 32), max_epochs=60, random_state=0
    ),
}

_rows: dict[str, dict] = {}


def _train_and_score(name, X_train, X_test, y_train, y_test):
    scale = name in ("logistic_regression", "mlp")
    if scale:
        scaler = StandardScaler().fit(X_train)
        X_train = scaler.transform(X_train)
        X_test = scaler.transform(X_test)
    model = MODELS[name]()
    model.fit(X_train, y_train)
    pred = model.predict(X_test)
    proba = model.predict_proba(X_test)[:, 1]
    _rows[name] = {
        "accuracy": accuracy_score(y_test, pred),
        "f1": f1_score(y_test, pred),
        "auc": roc_auc_score(y_test, proba),
    }
    return model, X_test


@pytest.mark.parametrize("name", list(MODELS))
def test_e1_model(benchmark, name, sla_data):
    _, X_train, X_test, y_train, y_test = sla_data
    model, X_test_scaled = _train_and_score(
        name, X_train, X_test, y_train, y_test
    )
    row = X_test_scaled[:1]
    benchmark(model.predict_proba, row)


def test_e1_emit_table(benchmark, sla_data):
    """Assert the expected shape and emit Table 1.

    Takes the ``benchmark`` fixture (timing the table build) so the
    test is collected under ``--benchmark-only`` too.
    """
    _, _, _, _, y_test = sla_data
    majority = max(float(np.mean(y_test)), 1 - float(np.mean(y_test)))
    lines = [
        f"{'model':<22} {'accuracy':>9} {'f1':>9} {'roc_auc':>9}",
        "-" * 52,
    ]
    for name, row in _rows.items():
        lines.append(
            f"{name:<22} {row['accuracy']:>9.3f} {row['f1']:>9.3f} "
            f"{row['auc']:>9.3f}"
        )
    lines.append("-" * 52)
    lines.append(f"{'majority baseline':<22} {majority:>9.3f}")
    benchmark(lambda: "\n".join(lines))
    save_result("E1 (Table 1): model quality, SLA-violation forecast", "\n".join(lines))

    # shape claims: every model beats the majority class; the tree
    # ensembles beat the linear/NB baselines on AUC
    for name, row in _rows.items():
        assert row["accuracy"] > majority, f"{name} below majority baseline"
    tree_auc = max(_rows["random_forest"]["auc"], _rows["gradient_boosting"]["auc"])
    base_auc = max(_rows["logistic_regression"]["auc"], _rows["gaussian_nb"]["auc"])
    assert tree_auc > base_auc
