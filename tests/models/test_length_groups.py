"""A grad-mode batch of more than ``_GROUP_ROWS`` rows runs as length
groups (``SASRecEncoder._encode``): each group over its own trailing
columns, every dropout mask drawn once at the batch's shape.

Two oracles, on identically seeded models:

* with dropout off, the T-wide forward (``run_t_wide``) — the grouped
  step computes the same loss and gradients;
* with dropout on, the same batch run as one group (``_GROUP_ROWS``
  patched to at least ``B``) — the grouped step draws the same masks,
  so the loss, the gradients and the generators' states agree.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.cl4srec import CL4SRec
from repro.core.momentum import MoCoCL4SRec
from repro.models import encoder as encoder_module
from repro.models.bert4rec import BERT4Rec
from repro.models.encoder import _GROUP_ROWS
from repro.models.sasrec import SASRec
from repro.nn.layers import Dropout
from tests.conftest import TRIM_TOLERANCES, assert_same_step, run_t_wide
from tests.core.test_cl4srec import small_config as cl4srec_config
from tests.core.test_cl4srec import view_pair
from tests.models.test_bert4rec import cloze_batch
from tests.models.test_bert4rec import small_config as bert4rec_config
from tests.models.test_sasrec import next_item_batch
from tests.models.test_sasrec import small_config as sasrec_config

#: Rows per batch: two full groups and a third of one row.
ROWS = 2 * _GROUP_ROWS + 1


def mixed_lengths(seed, shortest=1):
    """``ROWS`` shuffled history lengths from ``shortest`` up to past
    ``T`` = 12, so the batch holds a one-item and a full-length history
    and its groups run at different widths."""
    lengths = shortest + np.arange(ROWS) % 14
    return np.random.default_rng(seed).permutation(lengths)


def sasrec_case(dataset):
    # Next-item inputs are one item shorter than the history.
    batch = next_item_batch(mixed_lengths(1, shortest=2), num_items=dataset.num_items)
    return lambda: SASRec(dataset, sasrec_config()), lambda model: model.sequence_loss(batch)


def cl4srec_case(dataset):
    batch = view_pair(mixed_lengths(2), mixed_lengths(3), dataset.num_items)
    return (
        lambda: CL4SRec(dataset, cl4srec_config()),
        lambda model: model.contrastive_loss(batch)[0],
    )


def moco_case(dataset):
    batch = view_pair(mixed_lengths(4), mixed_lengths(5), dataset.num_items)
    config = dataclasses.replace(cl4srec_config(), augmentations=("crop",))
    return (
        lambda: MoCoCL4SRec(dataset, config),
        lambda model: model.contrastive_loss(batch)[0],
    )


def bert4rec_case(dataset):
    probe = BERT4Rec(dataset, bert4rec_config())
    inputs, labels = cloze_batch(probe, mixed_lengths(6), dataset.num_items)
    return (
        lambda: BERT4Rec(dataset, bert4rec_config()),
        lambda model: model.cloze_loss(inputs, labels),
    )


CASES = [
    pytest.param(sasrec_case, id="sasrec-sequence-loss"),
    pytest.param(cl4srec_case, id="cl4srec-contrastive-loss"),
    pytest.param(moco_case, id="moco-contrastive-loss"),
    pytest.param(bert4rec_case, id="bert4rec-cloze-loss"),
]


@pytest.fixture
def group_counts(monkeypatch):
    """The number of length groups of every batch encoded from here on
    (one-group batches included)."""
    counts = []
    real = encoder_module._length_groups

    def recording(lengths):
        groups = real(lengths)
        counts.append(len(groups))
        return groups

    monkeypatch.setattr(encoder_module, "_length_groups", recording)
    return counts


def generator_states(model):
    generators = {id(m._rng): m._rng for m in model.modules() if isinstance(m, Dropout)}
    return [g.bit_generator.state for g in generators.values()]


class TestMultiGroupStepMatchesTWideOracle:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("dtype, loss_tol, grad_tol", TRIM_TOLERANCES)
    def test_loss_and_gradients(
        self, tiny_dataset, case, dtype, loss_tol, grad_tol, group_counts
    ):
        build, loss_of = case(tiny_dataset)
        grouped, oracle = (build().to_dtype(dtype) for __ in range(2))
        run_t_wide(oracle.encoder)
        if hasattr(oracle, "key_encoder"):
            run_t_wide(oracle.key_encoder)
        assert_same_step(grouped, oracle, loss_of, loss_tol, grad_tol)
        assert group_counts and min(group_counts) == 3


class TestMultiGroupStepDrawsTheOneGroupStream:
    @pytest.mark.parametrize("case", CASES)
    def test_loss_gradients_and_generator_state(
        self, tiny_dataset, case, monkeypatch, group_counts
    ):
        build, loss_of = case(tiny_dataset)
        grouped, whole = build(), build()
        assert grouped.training and whole.encoder.embedding_dropout.rate > 0
        assert generator_states(grouped) == generator_states(whole)

        loss = loss_of(grouped)
        loss.backward()
        assert min(group_counts) == 3
        group_counts.clear()
        monkeypatch.setattr(encoder_module, "_GROUP_ROWS", ROWS)
        expected = loss_of(whole)
        expected.backward()
        assert set(group_counts) == {1}

        assert generator_states(grouped) == generator_states(whole)
        np.testing.assert_allclose(loss.item(), expected.item(), rtol=0, atol=1e-6)
        for (name, param), reference in zip(
            grouped.named_parameters(), whole.parameters()
        ):
            if reference.grad is None:
                assert param.grad is None, name
                continue
            scale = max(1.0, float(np.abs(reference.grad).max()))
            np.testing.assert_allclose(
                param.grad, reference.grad, rtol=0, atol=1e-5 * scale, err_msg=name
            )
