"""Latent-interest simulator of implicit-feedback interaction logs.

The paper evaluates on Amazon Beauty/Sports/Toys and Yelp; those
downloads are unavailable offline, so this module generates logs with
the structural properties the paper's comparisons rest on:

* **Power-law item popularity** — each latent interest cluster holds a
  Zipf-distributed catalogue, so Pop is a meaningful (weak) baseline.
* **Long-term user preference** — each user draws a sparse Dirichlet
  distribution over interest clusters, giving matrix-factorization
  baselines signal to latch onto.
* **Sequential structure** — a user's *current* interest follows a
  Markov chain over clusters with strong self-persistence plus a ring
  affinity (cluster *k* tends to lead to *k+1*), so sequence models
  beat non-sequential ones and augmentation-invariant representations
  transfer to next-item prediction.
* **Order flexibility knob** — ``interest_persistence`` controls how
  strictly ordered sequences are; registry configs vary it per dataset
  to mirror the paper's Figure-4 observation that reorder augmentation
  helps more on Sports/Toys/Yelp than on Beauty.

Generation is vectorized across users (one loop over time steps) so a
full-scale dataset (~300k events) builds in a couple of seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.log import InteractionLog


@dataclass
class SyntheticConfig:
    """Parameters of the generative simulator.

    Attributes
    ----------
    num_users, num_items:
        Raw counts before 5-core filtering.
    num_interests:
        Number of latent interest clusters ``K``.
    interest_sparsity:
        Dirichlet concentration for user preference vectors; smaller
        values give each user fewer dominant interests.
    popularity_exponent:
        Zipf exponent for within-cluster item popularity.
    mean_length, length_dispersion:
        Mean and dispersion of the per-user sequence length (negative
        binomial); lengths are clipped below at ``min_length``.
    min_length:
        Minimum generated sequence length (before 5-core).
    interest_persistence:
        Probability mass on staying in the current interest cluster at
        each step.  High values make sequences strictly ordered runs.
    ring_affinity:
        Extra transition mass from cluster ``k`` to ``k+1 (mod K)``,
        creating a predictable drift between interests.
    preference_mix:
        Exponent mixing the user's long-term preference into each
        transition (0 = pure Markov, 1 = fully preference-weighted).
    seed:
        Generator seed; the whole log is deterministic given it.
    """

    num_users: int = 1000
    num_items: int = 500
    num_interests: int = 20
    interest_sparsity: float = 0.15
    popularity_exponent: float = 1.05
    mean_length: float = 9.0
    length_dispersion: float = 2.0
    min_length: int = 3
    interest_persistence: float = 0.75
    ring_affinity: float = 0.6
    preference_mix: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        if self.num_interests <= 1:
            raise ValueError("num_interests must be at least 2")
        if self.num_items < self.num_interests:
            raise ValueError("need at least one item per interest cluster")
        if not 0.0 <= self.interest_persistence < 1.0:
            raise ValueError("interest_persistence must be in [0, 1)")
        if self.mean_length <= self.min_length:
            raise ValueError("mean_length must exceed min_length")


@dataclass
class _World:
    """Sampled global state: cluster assignments and transition matrix."""

    item_cluster: np.ndarray
    cluster_items: list[np.ndarray]
    cluster_cumpop: list[np.ndarray]
    transition: np.ndarray
    user_preferences: np.ndarray = field(default=None)  # type: ignore[assignment]


def _build_world(config: SyntheticConfig, rng: np.random.Generator) -> _World:
    k = config.num_interests
    # Round-robin item assignment keeps clusters balanced.
    item_cluster = np.arange(config.num_items) % k
    cluster_items = [np.flatnonzero(item_cluster == c) for c in range(k)]
    cluster_cumpop = []
    for items in cluster_items:
        ranks = np.arange(1, len(items) + 1, dtype=np.float64)
        pop = ranks ** (-config.popularity_exponent)
        cluster_cumpop.append(np.cumsum(pop / pop.sum()))

    # Interest transition matrix: persistence + ring drift + uniform noise.
    transition = np.full((k, k), (1.0 - config.interest_persistence) * 0.2 / k)
    remaining = 1.0 - config.interest_persistence
    for c in range(k):
        transition[c, c] += config.interest_persistence
        transition[c, (c + 1) % k] += remaining * config.ring_affinity
    transition /= transition.sum(axis=1, keepdims=True)

    preferences = rng.dirichlet(
        np.full(k, config.interest_sparsity), size=config.num_users
    )
    return _World(item_cluster, cluster_items, cluster_cumpop, transition, preferences)


def _sample_lengths(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Negative-binomial sequence lengths with the configured mean."""
    r = config.length_dispersion
    mean_extra = config.mean_length - config.min_length
    p = r / (r + mean_extra)
    extra = rng.negative_binomial(r, p, size=config.num_users)
    return (config.min_length + extra).astype(np.int64)


def _sample_items_for_clusters(
    clusters: np.ndarray, world: _World, rng: np.random.Generator
) -> np.ndarray:
    """Draw one item per user from that user's current cluster."""
    out = np.empty(len(clusters), dtype=np.int64)
    draws = rng.random(len(clusters))
    for c in np.unique(clusters):
        members = clusters == c
        positions = np.searchsorted(world.cluster_cumpop[c], draws[members])
        out[members] = world.cluster_items[c][positions]
    return out


def generate_log(config: SyntheticConfig) -> InteractionLog:
    """Generate a full interaction log from ``config``.

    Returns a raw (pre-5-core) :class:`InteractionLog`; run it through
    :func:`repro.data.preprocessing.five_core_filter` to match the
    paper's preprocessing.
    """
    rng = np.random.default_rng(config.seed)
    world = _build_world(config, rng)
    lengths = _sample_lengths(config, rng)
    max_length = int(lengths.max())

    # Per-user mixed transition kernel support: preference^mix.
    pref_weight = world.user_preferences**config.preference_mix
    pref_weight /= pref_weight.sum(axis=1, keepdims=True)

    # Initial interest ~ user preference.
    cum_pref = np.cumsum(world.user_preferences, axis=1)
    current = (cum_pref > rng.random((config.num_users, 1))).argmax(axis=1)

    users_out: list[np.ndarray] = []
    items_out: list[np.ndarray] = []
    steps_out: list[np.ndarray] = []
    all_users = np.arange(config.num_users)

    for t in range(max_length):
        active = lengths > t
        if not active.any():
            break
        active_users = all_users[active]
        items = _sample_items_for_clusters(current[active], world, rng)
        users_out.append(active_users)
        items_out.append(items)
        steps_out.append(np.full(len(active_users), t, dtype=np.int64))

        # Advance interests: Markov row blended with user preference.
        probs = world.transition[current[active]] * pref_weight[active]
        probs /= probs.sum(axis=1, keepdims=True)
        cum = np.cumsum(probs, axis=1)
        current[active] = (cum > rng.random((len(active_users), 1))).argmax(axis=1)

    user_ids = np.concatenate(users_out)
    item_ids = np.concatenate(items_out)
    steps = np.concatenate(steps_out)

    # Timestamps: per-user start offset plus per-step gaps; strictly
    # increasing within a user so chronological sorting is well-defined.
    start = rng.uniform(0.0, 1e6, size=config.num_users)
    gaps = rng.exponential(3600.0, size=len(user_ids)) + 1.0
    timestamps = start[user_ids] + steps * 86400.0 + gaps

    return InteractionLog(user_ids, item_ids, timestamps)


# ----------------------------------------------------------------------
# Serving-traffic synthesis (the load-test harness's request source)
# ----------------------------------------------------------------------
@dataclass
class TrafficConfig:
    """Knobs for a deterministic, replayable serving-traffic trace.

    The trace models production-shaped request streams against the
    recommendation server (``docs/SCALING.md``): Zipf-skewed *hot*
    users identified by dataset user id (they revisit, so the
    representation cache matters), a long tail of *cold* visitors who
    appear exactly once as raw item-id ``sequence`` requests (so the
    distinct-identity count can exceed the catalogue's user count by
    orders of magnitude), Markov-modulated calm/burst arrival times,
    and a single/batch request mix.

    Two-level determinism: the event stream (arrivals, hot/cold picks,
    batch sizes) comes from one sequential generator seeded with
    ``seed``, while each identity's session items come from a
    counter-based ``Philox`` stream keyed by ``(seed, identity)`` —
    order-independent, so a hot user's session is the same bytes no
    matter where in the trace it appears, and regenerating a trace is
    always byte-identical (property-tested).
    """

    #: Total HTTP events (a batch counts as one event).
    num_events: int = 10_000
    #: Dataset user-id space hot users are drawn from (must not exceed
    #: the serving dataset's ``num_users`` when replayed).
    user_pool: int = 1000
    #: Item-id space for cold-visitor sequences, ids in ``[1, num_items]``
    #: (0 is the padding id and never appears).
    num_items: int = 500
    #: Size of the Zipf head of returning users.
    hot_users: int = 200
    #: Probability that a sequence in the stream belongs to a hot user.
    hot_fraction: float = 0.6
    #: Zipf exponent for hot-user popularity (rank ** -s).
    zipf_exponent: float = 1.1
    #: Probability an event is a ``/recommend/batch`` call.
    batch_fraction: float = 0.3
    #: Geometric mean size of batch events (clamped to ``max_batch``).
    mean_batch: float = 8.0
    max_batch: int = 64
    #: Cold-visitor session lengths: ``min_session`` plus a geometric
    #: tail with mean ``mean_session``.
    mean_session: float = 9.0
    min_session: int = 2
    max_session: int = 50
    #: Top-k requested by every payload.
    k: int = 10
    #: Arrival process: exponential inter-arrivals at ``calm_qps``,
    #: Markov-switched into bursts at ``burst_qps``.
    calm_qps: float = 200.0
    burst_qps: float = 2000.0
    burst_enter_prob: float = 0.02
    burst_exit_prob: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_events < 1:
            raise ValueError(f"num_events must be positive, got {self.num_events}")
        for name in ("user_pool", "num_items", "hot_users", "max_batch",
                     "min_session", "max_session", "k"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in ("hot_fraction", "batch_fraction",
                     "burst_enter_prob", "burst_exit_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("zipf_exponent", "mean_batch", "mean_session",
                     "calm_qps", "burst_qps"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.min_session > self.max_session:
            raise ValueError(
                f"min_session {self.min_session} exceeds "
                f"max_session {self.max_session}"
            )


class TrafficTrace:
    """A lazily generated, deterministic stream of serving events.

    Events are dicts ``{"index", "arrival_s", "kind", "requests"}``
    where ``kind`` is ``"single"`` or ``"batch"`` and every entry of
    ``requests`` is a JSON-ready payload (``{"user", "k"}`` for hot
    users, ``{"sequence", "k"}`` for cold visitors).  Iteration
    regenerates from the seed each time — O(1) memory for
    multi-million-identity traces, and byte-identical on every pass.
    """

    def __init__(self, config: TrafficConfig) -> None:
        self.config = config
        ranks = np.arange(1, config.hot_users + 1, dtype=np.float64)
        self._zipf_cdf = np.cumsum(ranks ** -config.zipf_exponent)
        self._zipf_cdf /= self._zipf_cdf[-1]

    # -- identity/session content (order-independent) -------------------
    def _session_rng(self, identity: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[self.config.seed & 0xFFFFFFFFFFFFFFFF,
                                  identity])
        )

    def session_items(self, identity: int) -> list[int]:
        """The item-id session for one identity (ids in [1, num_items])."""
        config = self.config
        rng = self._session_rng(identity)
        extra = rng.geometric(
            1.0 / max(config.mean_session - config.min_session + 1.0, 1.0)
        ) - 1
        length = int(min(config.min_session + extra, config.max_session))
        return [int(x) for x in
                rng.integers(1, config.num_items + 1, size=length)]

    # -- the event stream (sequential, regenerated per iteration) -------
    def events(self, limit: int | None = None):
        """Yield events in arrival order (fresh generator every call)."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        total = config.num_events if limit is None else min(
            limit, config.num_events
        )
        cold_next = config.hot_users  # cold identities appear exactly once
        arrival = 0.0
        burst = False
        for index in range(total):
            burst = (
                rng.random() >= config.burst_exit_prob if burst
                else rng.random() < config.burst_enter_prob
            )
            rate = config.burst_qps if burst else config.calm_qps
            arrival += float(rng.exponential(1.0 / rate))
            if rng.random() < config.batch_fraction:
                kind = "batch"
                size = int(min(rng.geometric(1.0 / config.mean_batch),
                               config.max_batch))
            else:
                kind = "single"
                size = 1
            payloads = []
            for __ in range(size):
                if rng.random() < config.hot_fraction:
                    rank = int(np.searchsorted(self._zipf_cdf, rng.random()))
                    identity = min(rank, config.hot_users - 1)
                    payloads.append({
                        "user": identity % config.user_pool,
                        "k": config.k,
                    })
                else:
                    identity = cold_next
                    cold_next += 1
                    payloads.append({
                        "sequence": self.session_items(identity),
                        "k": config.k,
                    })
            yield {
                "index": index,
                "arrival_s": arrival,
                "kind": kind,
                "requests": payloads,
            }

    def __iter__(self):
        return self.events()

    def summary(self, limit: int | None = None) -> dict:
        """One cheap pass counting identities and sequences.

        ``distinct_users`` counts *identities*: distinct hot user ids
        plus every cold visitor (each appears exactly once by
        construction) — the number the serving-scale benchmark gates on.
        """
        hot_ids: set[int] = set()
        cold = sequences = events = batches = 0
        for event in self.events(limit):
            events += 1
            batches += event["kind"] == "batch"
            for payload in event["requests"]:
                sequences += 1
                if "user" in payload:
                    hot_ids.add(payload["user"])
                else:
                    cold += 1
        return {
            "events": events,
            "batches": batches,
            "sequences": sequences,
            "distinct_users": len(hot_ids) + cold,
            "hot_user_ids": len(hot_ids),
            "cold_users": cold,
            "duration_s": None,  # replay pacing decides wall time
        }

    def to_jsonl(self, path, limit: int | None = None) -> int:
        """Write the trace as JSON lines (byte-stable across runs)."""
        import json

        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events(limit):
                handle.write(json.dumps(event, sort_keys=True) + "\n")
                written += 1
        return written


def synthesize_trace(config: TrafficConfig | None = None,
                     **overrides) -> TrafficTrace:
    """Build a :class:`TrafficTrace` (kwargs override config fields)."""
    if config is None:
        config = TrafficConfig(**overrides)
    elif overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return TrafficTrace(config)
