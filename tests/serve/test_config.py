"""ServeConfig: one typed knob surface for every serving entry point."""

import argparse
import json

import numpy as np
import pytest

from repro.retrieval import ExactIndex, IVFIndex, make_index
from repro.serve import ServeConfig

from tests.retrieval.conftest import make_item_matrix


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServeConfig(checkpoint="ckpts/joint")
        assert config.index == "exact"
        assert config.resilience is True

    def test_unknown_index_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown index kind"):
            ServeConfig(checkpoint="x", index="faiss")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_batch_size", 0),
            ("cache_size", -1),
            ("nprobe", 0),
            ("rerank", -5),
            ("nlist", 0),
            ("pq_m", 0),
            ("deadline_ms", 0.0),
        ],
    )
    def test_non_positive_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.replace("_", "_")):
            ServeConfig(checkpoint="x", **{field: value})


class TestFromArgs:
    def test_lifts_serving_namespace(self):
        args = argparse.Namespace(
            checkpoint="ckpts/joint",
            model="CL4SRec",
            dataset="beauty",
            preset="smoke",
            max_batch_size=64,
            cache_size=128,
            deadline_ms=50.0,
            resilience=False,
            index="ivf_pq",
            index_path=None,
            nprobe=4,
            rerank=100,
            nlist=32,
            pq_m=8,
        )
        config = ServeConfig.from_args(args)
        assert config.checkpoint == "ckpts/joint"
        assert config.index == "ivf_pq"
        assert (config.nprobe, config.rerank, config.nlist) == (4, 100, 32)
        # argparse's store_false lands as False, which must survive.
        assert config.resilience is False

    def test_missing_attributes_fall_back_to_defaults(self):
        config = ServeConfig.from_args(argparse.Namespace(checkpoint="c"))
        assert config.max_batch_size == 256
        assert config.index == "exact"

    def test_cli_parser_round_trips(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--checkpoint", "ckpts/joint",
                "--port", "0",
                "--index", "ivf",
                "--nprobe", "6",
                "--rerank", "150",
            ]
        )
        config = ServeConfig.from_args(args)
        assert config.index == "ivf"
        assert config.nprobe == 6
        assert config.rerank == 150

    def test_index_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "index",
                "--checkpoint", "ckpts/joint",
                "--index", "ivf_pq",
                "--pq-m", "4",
                "--output", "items.npz",
            ]
        )
        assert args.command == "index"
        assert args.pq_m == 4
        assert args.output == "items.npz"


class TestJsonRoundTrip:
    def test_round_trip_preserves_every_field(self):
        config = ServeConfig(
            checkpoint="c", index="ivf", nprobe=3, deadline_ms=75.0
        )
        restored = ServeConfig.from_json(config.to_json())
        assert restored == config

    def test_json_is_sorted_and_flat(self):
        payload = json.loads(ServeConfig(checkpoint="c").to_json())
        assert payload["checkpoint"] == "c"
        assert list(payload) == sorted(payload)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown ServeConfig fields"):
            ServeConfig.from_json('{"checkpoint": "c", "shards": 4}')


class TestBuildIndex:
    def test_exact_kind_builds_exact_index(self):
        index = ServeConfig(checkpoint="c").build_index()
        assert isinstance(index, ExactIndex)
        assert not index.is_built  # engine fits it to the live matrix

    def test_ivf_knobs_forwarded(self):
        index = ServeConfig(
            checkpoint="c", index="ivf_pq", nprobe=5, rerank=60, nlist=20, pq_m=4
        ).build_index()
        assert isinstance(index, IVFIndex)
        assert index.quantize == "pq"
        assert (index.nprobe, index.rerank, index.nlist, index.pq_m) == (
            5, 60, 20, 4,
        )

    def test_index_path_loads_artifact_and_applies_knobs(self, tmp_path):
        matrix = make_item_matrix(num_items=100)
        path = make_index("ivf", nlist=8, nprobe=2).build(matrix).save(
            tmp_path / "a.npz"
        )
        config = ServeConfig(
            checkpoint="c", index_path=str(path), nprobe=7, rerank=33
        )
        index = config.build_index()
        assert index.is_built
        assert index.nprobe == 7  # runtime override wins over the artifact
        assert index.rerank == 33
        assert np.array_equal(index.matrix, matrix)

    def test_index_params_excludes_unset(self):
        assert ServeConfig(checkpoint="c", index="ivf").index_params() == {}
        assert ServeConfig(checkpoint="c").index_params() == {}
