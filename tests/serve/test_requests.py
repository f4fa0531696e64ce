"""Request parsing and the JSONL wire format."""

import numpy as np
import pytest

from repro.serve.requests import (
    Recommendation,
    RecRequest,
    RequestError,
    read_requests_file,
)


class TestRecRequest:
    def test_user_request(self):
        request = RecRequest(user=3, k=5)
        assert request.user == 3 and request.sequence is None

    def test_sequence_request_coerces_ints(self):
        request = RecRequest(sequence=[np.int64(3), 5.0])
        assert request.sequence == (3, 5)

    @pytest.mark.parametrize(
        "user", ["abc", [1], 1.7, True, float("nan")]
    )
    def test_rejects_non_integer_user(self, user):
        """A user id is integral and not a bool; ``int()`` used to let
        1.7 and True through as user 1 and blow up on the rest."""
        with pytest.raises(RequestError):
            RecRequest(user=user)
        with pytest.raises(RequestError):
            RecRequest.from_dict({"user": user})

    def test_integral_user_is_normalized(self):
        assert RecRequest(user=np.int64(3)).user == 3
        assert type(RecRequest(user=4.0).user) is int

    def test_rejects_non_integer_sequence_item(self):
        with pytest.raises(RequestError, match="sequence item"):
            RecRequest(sequence=[3, 1.5])
        with pytest.raises(RequestError, match="sequence item"):
            RecRequest.from_dict({"sequence": [3, True]})

    def test_requires_exactly_one_of_user_sequence(self):
        with pytest.raises(RequestError):
            RecRequest()
        with pytest.raises(RequestError):
            RecRequest(user=1, sequence=(2,))

    def test_rejects_bad_k(self):
        with pytest.raises(RequestError):
            RecRequest(user=1, k=0)

    def test_rejects_empty_sequence(self):
        with pytest.raises(RequestError):
            RecRequest(sequence=())

    def test_from_dict(self):
        request = RecRequest.from_dict({"user": 7, "k": 3, "exclude_seen": False})
        assert (request.user, request.k, request.exclude_seen) == (7, 3, False)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            RecRequest.from_dict({"user": 1, "topk": 5})


class TestRecommendationPayload:
    def test_user_payload(self):
        rec = Recommendation(
            items=np.array([3, 1]),
            scores=np.array([0.25, 0.125]),
            request=RecRequest(user=9),
        )
        assert rec.to_dict() == {
            "user": 9, "items": [3, 1], "scores": [0.25, 0.125]
        }

    def test_sequence_payload(self):
        rec = Recommendation(
            items=np.array([2]),
            scores=np.array([1.0]),
            request=RecRequest(sequence=(4, 5)),
        )
        assert rec.to_dict()["sequence"] == [4, 5]


class TestReadRequestsFile:
    def test_parses_skipping_comments_and_blanks(self, tmp_path):
        path = tmp_path / "reqs.jsonl"
        path.write_text(
            '# header comment\n'
            '{"user": 1, "k": 2}\n'
            '\n'
            '{"sequence": [3, 4]}\n'
        )
        requests = read_requests_file(path)
        assert len(requests) == 2
        assert requests[0].user == 1 and requests[1].sequence == (3, 4)

    def test_reports_line_number_on_bad_json(self, tmp_path):
        path = tmp_path / "reqs.jsonl"
        path.write_text('{"user": 1}\nnot json\n')
        with pytest.raises(RequestError, match=":2:"):
            read_requests_file(path)

    def test_reports_line_number_on_bad_request(self, tmp_path):
        path = tmp_path / "reqs.jsonl"
        path.write_text('{"k": 5}\n')
        with pytest.raises(RequestError, match=":1:"):
            read_requests_file(path)
