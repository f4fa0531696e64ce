"""Leave-one-out full-ranking evaluator."""

import numpy as np
import pytest

from repro.eval.evaluator import Evaluator
from repro.models.base import SequenceRecommender


class OracleScorer:
    """Scores the held-out target highest for every user."""

    def __init__(self, dataset, split="test"):
        self.dataset = dataset
        self.split = split

    def score_items(self, dataset, users, split="test"):
        targets = (
            dataset.test_targets if split == "test" else dataset.valid_targets
        )
        scores = np.zeros((len(users), dataset.num_items + 1))
        for row, user in enumerate(users):
            scores[row, targets[user]] = 1.0
        return scores


class ConstantScorer:
    """Same score everywhere — ranks must be pessimal under tie-breaking."""

    def score_items(self, dataset, users, split="test"):
        return np.ones((len(users), dataset.num_items + 1))


class SeenItemScorer:
    """Puts all mass on already-seen items; they must be masked out, so
    the target's rank ignores them entirely."""

    def score_items(self, dataset, users, split="test"):
        scores = np.zeros((len(users), dataset.num_items + 1))
        for row, user in enumerate(users):
            seen = dataset.seen_items(int(user))
            scores[row, seen] = 10.0
            scores[row, dataset.test_targets[user]] = 5.0
        return scores


class NaNScorer:
    """A diverged model: NaN everywhere, or only at each user's target."""

    def __init__(self, target_only=False):
        self.target_only = target_only

    def score_items(self, dataset, users, split="test"):
        if not self.target_only:
            return np.full((len(users), dataset.num_items + 1), np.nan)
        scores = np.zeros((len(users), dataset.num_items + 1))
        for row, user in enumerate(users):
            scores[row, dataset.test_targets[user]] = np.nan
        return scores


class BadShapeScorer:
    def score_items(self, dataset, users, split="test"):
        return np.zeros((len(users), 3))


class TestEvaluator:
    def test_oracle_gets_perfect_metrics(self, tiny_dataset):
        result = Evaluator(tiny_dataset).evaluate(OracleScorer(tiny_dataset))
        assert result["HR@5"] == 1.0
        assert result["NDCG@5"] == 1.0

    def test_constant_scorer_gets_zero(self, tiny_dataset):
        result = Evaluator(tiny_dataset).evaluate(ConstantScorer())
        assert result["HR@20"] == 0.0 or tiny_dataset.num_items <= 20

    def test_seen_items_masked(self, tiny_dataset):
        """Even though seen items score 10 > target's 5, masking them
        must put the target at rank 1."""
        result = Evaluator(tiny_dataset).evaluate(SeenItemScorer())
        assert result["HR@5"] == 1.0

    def test_num_users_counted(self, tiny_dataset):
        result = Evaluator(tiny_dataset).evaluate(OracleScorer(tiny_dataset))
        assert result.num_users == len(tiny_dataset.evaluation_users("test"))

    def test_max_users_cap(self, tiny_dataset):
        result = Evaluator(tiny_dataset).evaluate(OracleScorer(tiny_dataset), max_users=7)
        assert result.num_users == 7
        assert len(result.ranks) == 7

    def test_valid_split(self, tiny_dataset):
        oracle = OracleScorer(tiny_dataset, split="valid")
        result = Evaluator(tiny_dataset, split="valid").evaluate(oracle)
        assert result["HR@5"] == 1.0

    @pytest.mark.parametrize("target_only", [False, True], ids=["all_nan", "nan_target"])
    def test_nan_scores_rank_last(self, tiny_dataset, target_only):
        """NaN never ranks first: a NaN target scores no hit and a finite MRR."""
        result = Evaluator(tiny_dataset).evaluate(NaNScorer(target_only))
        for k in (5, 10, 20):
            assert result[f"HR@{k}"] == 0.0
            assert result[f"NDCG@{k}"] == 0.0
        assert np.isfinite(result["MRR"]) and 0.0 < result["MRR"] < 1.0
        assert (result.ranks == tiny_dataset.num_items + 1).all()

    def test_bad_split_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            Evaluator(tiny_dataset, split="train")

    def test_bad_score_shape_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            Evaluator(tiny_dataset).evaluate(BadShapeScorer())

    def test_result_indexing(self, tiny_dataset):
        result = Evaluator(tiny_dataset).evaluate(OracleScorer(tiny_dataset))
        assert result["HR@10"] == result.metrics["HR@10"]

    def test_batched_evaluation_consistent(self, tiny_dataset):
        big = Evaluator(tiny_dataset, batch_size=1000).evaluate(
            OracleScorer(tiny_dataset)
        )
        small = Evaluator(tiny_dataset, batch_size=7).evaluate(
            OracleScorer(tiny_dataset)
        )
        np.testing.assert_array_equal(big.ranks, small.ranks)

    def test_padding_column_never_wins(self, tiny_dataset):
        """Column 0 gets a huge score but must be force-masked."""

        class PaddingLover:
            def score_items(self, dataset, users, split="test"):
                scores = np.zeros((len(users), dataset.num_items + 1))
                scores[:, 0] = 100.0
                for row, user in enumerate(users):
                    scores[row, dataset.test_targets[user]] = 1.0
                return scores

        result = Evaluator(tiny_dataset).evaluate(PaddingLover())
        assert result["HR@5"] == 1.0

    def test_ranks_invariant_under_monotone_transform(self, tiny_dataset):
        """HR/NDCG depend only on the score ordering — any strictly
        monotone transform of the scores yields identical ranks."""
        rng = np.random.default_rng(3)
        base = rng.normal(size=(1000, tiny_dataset.num_items + 1))

        class Scorer:
            def __init__(self, transform):
                self.transform = transform

            def score_items(self, dataset, users, split="test"):
                return self.transform(base[np.asarray(users)])

        raw = Evaluator(tiny_dataset).evaluate(Scorer(lambda s: s))
        warped = Evaluator(tiny_dataset).evaluate(Scorer(lambda s: np.exp(s) * 3 + 1))
        np.testing.assert_array_equal(raw.ranks, warped.ranks)

    def test_repeat_consumption_target_stays_scoreable(self, tiny_dataset):
        """If the test target also appears in history, it must not be
        masked away (its own score survives)."""
        # Find a user whose test target is in their seen items, if any.
        repeat_users = [
            int(u)
            for u in tiny_dataset.evaluation_users("test")
            if tiny_dataset.test_targets[u] in tiny_dataset.seen_items(int(u))
        ]
        result = Evaluator(tiny_dataset).evaluate(OracleScorer(tiny_dataset))
        # Oracle still perfect regardless of repeats.
        assert result["HR@5"] == 1.0
        # (Sanity: synthetic data does contain repeat consumption.)
        assert isinstance(repeat_users, list)


class EmbeddingScorer(SequenceRecommender):
    """Representation-API scorer: mean-pools item embeddings.

    ``score_items`` computes exactly what ``ExactIndex.score`` computes
    over the same queries, so index-backed evaluation must reproduce
    the plain protocol bit for bit.
    """

    def __init__(self, dataset, dim=8, seed=11):
        rng = np.random.default_rng(seed)
        self.matrix = rng.normal(size=(dataset.num_items + 1, dim))
        self.matrix[0] = 0.0

    def fit(self, dataset, **overrides):
        return self

    def item_embedding_matrix(self, num_items):
        return self.matrix

    def encode_sequences(self, sequences):
        dim = self.matrix.shape[1]
        rows = [
            self.matrix[np.asarray(seq, dtype=np.int64)].mean(axis=0)
            if len(seq)
            else np.zeros(dim)
            for seq in sequences
        ]
        return np.stack(rows)

    def score_items(self, dataset, users, split="test"):
        sequences = [
            dataset.full_sequence(int(user), split=split) for user in users
        ]
        return np.array(
            self.encode_sequences(sequences) @ self.matrix.T, dtype=np.float64
        )


class TestIndexBackedEvaluation:
    def _index(self, model, dataset, kind="exact", **params):
        from repro.retrieval import make_index

        return make_index(kind, **params).build(
            np.ascontiguousarray(model.item_embedding_matrix(dataset.num_items))
        )

    def test_exact_index_metrics_bit_identical(self, tiny_dataset):
        model = EmbeddingScorer(tiny_dataset)
        plain = Evaluator(tiny_dataset).evaluate(model)
        indexed = Evaluator(
            tiny_dataset, index=self._index(model, tiny_dataset)
        ).evaluate(model)
        assert indexed.metrics == plain.metrics
        assert np.array_equal(indexed.ranks, plain.ranks)

    def test_quantized_index_evaluates(self, tiny_dataset):
        model = EmbeddingScorer(tiny_dataset)
        index = self._index(
            model, tiny_dataset, kind="ivf", nlist=4, nprobe=4
        )
        result = Evaluator(tiny_dataset, index=index).evaluate(model)
        assert result.num_users == len(tiny_dataset.evaluation_users("test"))
        assert all(0.0 <= v <= 1.0 for v in result.metrics.values())

    def test_index_row_mismatch_rejected(self, tiny_dataset):
        from repro.retrieval import ExactIndex

        wrong = ExactIndex().build(
            np.random.default_rng(0).normal(size=(tiny_dataset.num_items + 7, 4))
        )
        with pytest.raises(ValueError, match="rows"):
            Evaluator(tiny_dataset, index=wrong)

    def test_index_requires_representation_api(self, tiny_dataset):
        from repro.eval.evaluator import candidate_scores
        from repro.retrieval import ExactIndex

        model = EmbeddingScorer(tiny_dataset)
        index = self._index(model, tiny_dataset)
        users = tiny_dataset.evaluation_users("test")[:4]
        with pytest.raises(TypeError, match="encode_sequences"):
            candidate_scores(
                OracleScorer(tiny_dataset), tiny_dataset, users, index=index
            )
