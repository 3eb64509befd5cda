import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.core import (
    DimensionMismatch,
    DomainError,
    EmptyMatrix,
    LabelMatrix,
    LabelSet,
    LengthMismatch,
    Prior,
    WorkerModel,
    argmax_labels,
    error_rate,
    normalize_log_posteriors,
    posterior,
)
from crowdbounds.harness import ParseError, UnknownLabel, load_labels


def random_worker_model(rng, num_workers, num_classes):
    """A random full-table model with strictly positive rows."""
    raw = rng.uniform(0.05, 1.0, size=(num_workers, num_classes, num_classes))
    return WorkerModel.gds(raw / raw.sum(axis=2, keepdims=True))


def random_label_matrix(rng, num_workers, num_items, num_classes, density=0.7):
    data = rng.integers(1, num_classes + 1, size=(num_workers, num_items))
    data[rng.random((num_workers, num_items)) > density] = 0
    return LabelMatrix.from_dense(data, num_classes)


def load_grid(tmp_path, text, label_set):
    """Read ``text`` as a dense-CSV labels file."""
    path = tmp_path / "grid.csv"
    path.write_text(text)
    return load_labels(path, "dense-csv", label_set=label_set)[0]


class TestValidateLabelMatrix:
    """Validation of a worker-by-item grid, which the dense-CSV reader does
    with the same rules and messages as the triples reader."""

    def test_mask_derivation(self, tmp_path):
        matrix = load_grid(tmp_path, "1,2\n0,1\n", LabelSet(2))
        assert (matrix.dense() != 0).astype(int).tolist() == [[1, 1], [0, 1]]
        assert matrix.num_workers == 2 and matrix.num_items == 2

    def test_out_of_range_is_reported_one_based(self, tmp_path):
        with pytest.raises(UnknownLabel,
                           match=r"^line 2: label 3 is not one of the 2 classes$"):
            load_grid(tmp_path, "1,0\n3,0\n", LabelSet(2))

    def test_all_missing_grid_is_valid(self, tmp_path):
        # The grid type accepts a worker-by-item grid without labels, and a
        # file's all-zero rows load as silent workers; a file with no label
        # at all is rejected.
        assert LabelMatrix.from_dense([[0, 0], [0, 0]], 2).num_labels == 0
        matrix = load_grid(tmp_path, "0,0\n0,2\n0,0\n", LabelSet(2))
        assert matrix.labels_per_worker().tolist() == [0, 1, 0]
        with pytest.raises(EmptyMatrix, match="contains no labels"):
            load_grid(tmp_path, "0,0\n0,0\n", LabelSet(2))

    def test_empty_grid(self, tmp_path):
        with pytest.raises(EmptyMatrix):
            LabelMatrix.from_dense(np.zeros((0, 3), dtype=int), 2)
        for text in ("", "\n\n"):
            with pytest.raises(EmptyMatrix, match="contains no labels"):
                load_grid(tmp_path, text, LabelSet(2))

    def test_ragged_grid(self, tmp_path):
        with pytest.raises(ParseError,
                           match=r"^line 2: expected 2 fields, got 1$"):
            load_grid(tmp_path, "1,2\n1\n", LabelSet(2))

    def test_binary_convention_maps_signs(self, tmp_path):
        matrix = load_grid(tmp_path, "1,-1,0\n",
                           LabelSet(2, binary_convention=True))
        assert matrix.dense().tolist() == [[1, 2, 0]]

    def test_binary_convention_rejects_plain_two(self, tmp_path):
        with pytest.raises(UnknownLabel, match="label 2 is not one of"):
            load_grid(tmp_path, "2\n", LabelSet(2, binary_convention=True))


class TestPosterior:
    def test_single_worker_bayes(self):
        # One worker of accuracy 0.8 voting class 1 under a uniform prior.
        model = WorkerModel.hds([0.8], 2)
        labels = LabelMatrix.from_dense(np.array([[1]]), 2)
        rho = posterior(model, Prior.uniform(2), labels)
        assert rho[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_uninformative_likelihood(self):
        model = WorkerModel.gds(np.full((3, 4, 4), 0.25))
        labels = LabelMatrix.from_dense(np.array([[1, 2], [3, 4], [2, 2]]), 4)
        rho = posterior(model, Prior.uniform(4), labels)
        assert np.allclose(rho, 0.25, atol=1e-12)

    def test_noiseless_consistent_column(self):
        model = WorkerModel.hds([1.0, 1.0, 1.0], 3)
        labels = LabelMatrix.from_dense(np.array([[2], [2], [2]]), 3)
        rho = posterior(model, Prior.uniform(3), labels)
        assert rho[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        model = WorkerModel.hds([0.8, 0.9], 2)
        labels = LabelMatrix.from_dense(np.array([[1]]), 2)
        with pytest.raises(DimensionMismatch):
            posterior(model, Prior.uniform(2), labels)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5),
           st.integers(1, 8), st.integers(1, 12))
    def test_rows_sum_to_one(self, seed, L, M, N):
        rng = np.random.default_rng(seed)
        model = random_worker_model(rng, M, L)
        labels = random_label_matrix(rng, M, N, L)
        prior_raw = rng.uniform(0.1, 1.0, L)
        rho = posterior(model, Prior(prior_raw / prior_raw.sum()), labels)
        assert np.abs(rho.sum(axis=1) - 1.0).max() <= 1e-9
        assert rho.min() >= 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    def test_global_log_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        log_scores = rng.uniform(-30, 0, size=(6, 3))
        base = normalize_log_posteriors(log_scores)
        shifted = normalize_log_posteriors(log_scores + shift)
        assert np.abs(base - shifted).max() <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from(["sds", "hds"]))
    def test_restricted_models_match_their_expansion_bitwise(self, seed, L, kind):
        rng = np.random.default_rng(seed)
        M, N = 4, 6
        if kind == "sds":
            model = WorkerModel.sds(rng.uniform(0.2, 0.95, size=(M, L)))
        else:
            model = WorkerModel.hds(rng.uniform(0.2, 0.95, size=M), L)
        expanded = WorkerModel.gds(model.as_gds())
        labels = random_label_matrix(rng, M, N, L)
        prior = Prior.uniform(L)
        assert np.array_equal(posterior(model, prior, labels),
                              posterior(expanded, prior, labels))


class TestErrorRate:
    def test_identical(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_fully_disagreeing(self):
        assert error_rate([1, 1], [2, 2]) == 1.0

    def test_half(self):
        assert error_rate([1, 2, 1, 2], [1, 2, 2, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            error_rate([1, 2], [1])


class TestArgmaxLabels:
    def test_lowest_breaks_ties(self):
        assert argmax_labels(np.array([[1.0, 1.0], [0.0, 2.0]])).tolist() == [1, 2]


class TestModelValidation:
    def test_gds_rows_must_sum_to_one(self):
        bad = np.full((1, 2, 2), 0.6)
        with pytest.raises(DomainError):
            WorkerModel.gds(bad)

    def test_prior_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Prior(np.array([0.5, 0.6]))

    def test_assignment_probabilities_positive(self):
        from crowdbounds.core import AssignmentModel
        with pytest.raises(DomainError):
            AssignmentModel.constant(0.0)

    def test_sds_expansion_structure(self):
        model = WorkerModel.sds([[0.7, 0.4]])
        table = model.as_gds()[0]
        assert table[0].tolist() == pytest.approx([0.7, 0.3])
        assert table[1].tolist() == pytest.approx([0.6, 0.4])

    def test_label_set_round_trip_is_a_bijection(self, tmp_path):
        """``to_external`` and the readers' token table invert each other."""
        label_set = LabelSet(2, binary_convention=True)
        internal = np.array([[1, 2, 0], [0, 1, 2]])
        external = label_set.to_external(internal)
        assert external.tolist() == [[1, -1, 0], [0, 1, -1]]
        text = "".join(",".join(map(str, row)) + "\n" for row in external)
        assert load_grid(tmp_path, text, label_set).dense().tolist() == \
            internal.tolist()

def test_log_map_rule_floors_as_clip_did():
    """The oracle-MAP logs floor each entry with ``np.maximum``: the same
    bits as ``np.clip(x, LOG_FLOOR, None)`` on zeros of either sign, NaN,
    values below the floor (a subnormal among them) and ordinary ones."""
    from crowdbounds.core import LOG_FLOOR, _log_map_rule
    entries = np.array([0.0, -0.0, np.nan, 1e-300, 5e-324, 1.0, 0.25, 1e-12,
                        0.5])
    tables = entries.reshape(1, 3, 3)
    for prior in (entries[:3], entries[3:6], [0.0, 1.0, np.nan]):
        scores, shifts = _log_map_rule(tables, prior)
        assert scores.tobytes() == np.log(np.clip(
            tables, LOG_FLOOR, None)).transpose(0, 2, 1).tobytes()
        assert shifts.tobytes() == np.log(np.clip(prior, LOG_FLOOR,
                                                  None)).tobytes()
