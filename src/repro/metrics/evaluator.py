"""Scalable evaluation of the Section 2.2 delay metric.

Every experiment ultimately asks the same question: for a block mined by
node ``s``, how long until it reaches nodes holding a target fraction of the
hash power — evaluated with *every* node as a potential miner.  The naive
answer (``all_sources_arrival_times`` + ``hash_power_reach_times``) runs one
Dijkstra pass per node and materialises an ``N x N`` arrival matrix, which
dominates evaluation wall-clock and memory at large N.

:class:`DelayEvaluator` is the shared front-end all call sites use instead:

* **exact mode** — every node is a source, but the Dijkstra passes run in
  source *chunks* and only the per-source reach times are kept, so peak
  memory is ``O(chunk_size x N)`` instead of ``O(N^2)``.  Row-wise results
  are bit-identical to the all-pairs path.
* **sampled mode** — sources are drawn i.i.d. (with replacement) with
  probability proportional to hash power, so the unweighted statistics of
  the sample are unbiased estimates of the *miner-weighted* delay
  distribution — delays weighted by the chance each node actually mines
  the next block, which under the default uniform hash power coincides
  with the per-node distribution exact mode reports.  Duplicate draws cost
  nothing (Dijkstra runs once per distinct source), and the evaluation
  reports the i.i.d. standard error of each estimated mean so consumers
  can judge the sampling noise.  Note the estimand under *non-uniform*
  hash power: exact mode is a census over nodes, sampled mode estimates
  the miner-weighted distribution — do not mix the two modes within one
  curve when hash power is skewed.
* **auto mode** (default) — exact up to :attr:`exact_threshold` sources,
  sampled beyond it.  The default threshold keeps every paper-scale run
  (N <= 4096) exact, so default results are unchanged; the 20k-node regime
  switches to sampling automatically.

Every mode runs its Dijkstra passes serially, chunk by chunk, through
:meth:`~repro.core.propagation.PropagationEngine.arrival_times_from` — the
engine's one shortest-path kernel, shared with block propagation.
Parallelism lives a level up, across the tasks of a sweep.

Source selection is deterministic: the sample depends only on
``(seed, population, hash power)``, never on global RNG state, so repeated
evaluations of a converging topology are paired samples and distributed
workers agree on the sources without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.metrics.delay import reach_times_for_sources
from repro.telemetry.recorder import get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import P2PNetwork
    from repro.core.propagation import PropagationEngine

#: Default mode: exact below the threshold, sampled above.
DEFAULT_MODE = "auto"

#: Largest source count evaluated exactly in auto mode.  Chosen above every
#: configuration the paper (and this repository's figures) uses, so default
#: results are bit-for-bit unchanged, while 20k-node runs sample.
DEFAULT_EXACT_THRESHOLD = 4096

#: Number of miner-weighted sources drawn in sampled mode.
DEFAULT_SAMPLE_SIZE = 512

#: Sources per Dijkstra batch in exact (chunked) mode; peak arrival memory
#: is ``chunk_size * N * 8`` bytes (~80 MB at N=20k with the default).
DEFAULT_CHUNK_SIZE = 512

_MODES = ("auto", "exact", "sampled")


@dataclass(frozen=True)
class DelayEvaluation:
    """Result of one :meth:`DelayEvaluator.evaluate` call.

    Attributes
    ----------
    source_ids:
        Node ids evaluated as block sources, ascending.  In exact mode this
        is the whole population; in sampled mode the drawn
        sample — with-replacement draws, so ids can repeat (each repeat is
        one i.i.d. draw; Dijkstra still ran once per distinct id).
    target_fractions:
        Hash-power targets evaluated, in request order.
    reach_times_ms:
        ``(num_targets, num_sources)`` reach times; row ``t`` aligns with
        ``target_fractions[t]``, columns with ``source_ids``.
    num_nodes:
        Size of the evaluated population.
    sampled:
        Whether sources were subsampled.
    standard_error_ms:
        Per-target standard error of the estimated *mean* reach time
        (``None`` entries in exact mode, where there is no sampling noise).
    """

    source_ids: np.ndarray
    target_fractions: tuple[float, ...]
    reach_times_ms: np.ndarray
    num_nodes: int
    sampled: bool
    standard_error_ms: tuple[float | None, ...]

    @property
    def num_sources(self) -> int:
        return int(self.source_ids.size)

    def reach(self, target_fraction: float) -> np.ndarray:
        """Per-source reach times for one evaluated target fraction."""
        for index, target in enumerate(self.target_fractions):
            if target == target_fraction:
                return self.reach_times_ms[index]
        raise KeyError(f"target fraction {target_fraction} was not evaluated")

    def median_ms(self, target_fraction: float) -> float:
        """Median finite reach time for one target (``inf`` if none)."""
        values = self.reach(target_fraction)
        finite = values[np.isfinite(values)]
        return float(np.median(finite)) if finite.size else float("inf")

    def to_metadata(self) -> dict[str, Any]:
        """JSON-serialisable summary for persisted task records."""
        return {
            "sampled": self.sampled,
            "num_sources": self.num_sources,
            "num_nodes": self.num_nodes,
            "source_ids": [int(s) for s in self.source_ids],
            "standard_error_ms": [
                None if err is None else float(err)
                for err in self.standard_error_ms
            ],
            "target_fractions": [float(t) for t in self.target_fractions],
        }


@dataclass(frozen=True)
class DelayEvaluator:
    """Chunked-exact / miner-weighted-sampled delay evaluation policy.

    Frozen and picklable: distributed workers rebuild the evaluator from the
    task's parameters (:meth:`from_params`) and reach identical results.

    Parameters
    ----------
    mode:
        ``"auto"`` (exact below the threshold, sampled above), ``"exact"``,
        or ``"sampled"``.
    exact_threshold:
        Auto-mode switch point, in number of candidate sources.
    sample_size:
        Sources drawn in sampled mode (clamped to the population; a sample
        covering the whole population degrades to exact).
    chunk_size:
        Sources per Dijkstra batch — bounds peak arrival-matrix memory at
        ``chunk_size x N`` floats in every mode.
    seed:
        Seed of the deterministic source draw in sampled mode.
    """

    mode: str = DEFAULT_MODE
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    sample_size: int = DEFAULT_SAMPLE_SIZE
    chunk_size: int = DEFAULT_CHUNK_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.exact_threshold < 1:
            raise ValueError("exact_threshold must be positive")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")

    # ------------------------------------------------------------------ #
    # Parameter round-trip (SweepSpec / task records / CLI)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_params(cls, params: Mapping[str, Any] | None) -> "DelayEvaluator":
        """Build an evaluator from a JSON-style parameter mapping."""
        params = dict(params or {})
        unknown = set(params) - {
            "mode", "exact_threshold", "sample_size", "chunk_size", "seed",
        }
        if unknown:
            raise ValueError(f"unknown evaluation parameters: {sorted(unknown)}")
        return cls(
            mode=str(params.get("mode", DEFAULT_MODE)),
            exact_threshold=int(
                params.get("exact_threshold", DEFAULT_EXACT_THRESHOLD)
            ),
            sample_size=int(params.get("sample_size", DEFAULT_SAMPLE_SIZE)),
            chunk_size=int(params.get("chunk_size", DEFAULT_CHUNK_SIZE)),
            seed=int(params.get("seed", 0)),
        )

    def to_params(self) -> dict[str, Any]:
        """Non-default parameters only, so default tasks stay hash-stable."""
        defaults = DelayEvaluator()
        params: dict[str, Any] = {}
        for name in (
            "mode", "exact_threshold", "sample_size", "chunk_size", "seed"
        ):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                params[name] = value
        return params

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _select_sources(
        self, candidates: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        """Resolve the evaluated sources and whether they were sampled.

        Sampled draws are i.i.d. with replacement proportional to hash
        power: an unbiased estimator of the miner-weighted distribution
        whose plain ``std / sqrt(S)`` standard error is valid.  (A
        weighted draw *without* replacement would need Horvitz-Thompson
        corrections to be unbiased.)  A sample at least as large as the
        population degrades to the exact census instead.
        """
        count = candidates.size
        use_sampling = self.mode == "sampled" or (
            self.mode == "auto" and count > self.exact_threshold
        )
        if not use_sampling or self.sample_size >= count:
            return candidates, False
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(count,))
        )
        drawn = rng.choice(
            count, size=self.sample_size, replace=True, p=weights
        )
        return candidates[np.sort(drawn)], True

    def _distinct_reach(
        self,
        engine: "PropagationEngine",
        network: "P2PNetwork",
        graph,
        distinct: np.ndarray,
        weights: np.ndarray,
        targets: tuple[float, ...],
    ) -> np.ndarray:
        """Per-target reach times for distinct sources, chunked."""
        reach = np.empty((len(targets), distinct.size), dtype=float)
        for start in range(0, distinct.size, self.chunk_size):
            chunk = distinct[start : start + self.chunk_size]
            arrival = engine.arrival_times_from(network, chunk, graph=graph)
            for index, target in enumerate(targets):
                reach[index, start : start + chunk.size] = (
                    reach_times_for_sources(arrival, weights, target)
                )
        return reach

    def evaluate(
        self,
        engine: "PropagationEngine",
        network: "P2PNetwork",
        hash_power: np.ndarray,
        target_fractions: Sequence[float] = (0.9,),
    ) -> DelayEvaluation:
        """Evaluate the delay metric over the current overlay.

        Parameters
        ----------
        engine / network:
            The propagation engine and the overlay to evaluate.
        hash_power:
            Per-node hash power shares.
        target_fractions:
            Hash-power targets, each evaluated on the same Dijkstra passes.
        """
        if not target_fractions:
            raise ValueError("target_fractions must be non-empty")
        hash_power = np.asarray(hash_power, dtype=float)
        if hash_power.shape[0] != engine.num_nodes:
            raise ValueError("hash_power length must match the engine size")
        candidates = np.arange(engine.num_nodes, dtype=np.int64)
        sources, sampled = self._select_sources(
            candidates, hash_power / hash_power.sum()
        )

        recorder = get_recorder()
        mode = "sampled" if sampled else "exact"
        targets = tuple(float(t) for t in target_fractions)
        with recorder.span("evaluate.delay", mode=mode):
            graph = engine.weight_graph(network)
            # With-replacement samples can repeat a source; solve each
            # distinct source once and expand the rows over the multiset.
            distinct, inverse = np.unique(sources, return_inverse=True)
            reach = self._distinct_reach(
                engine, network, graph, distinct, hash_power, targets
            )[:, inverse]

        errors: tuple[float | None, ...]
        if sampled:
            errors = tuple(
                _mean_standard_error(reach[index]) for index in range(len(targets))
            )
        else:
            errors = tuple(None for _ in targets)
        recorder.incr("evaluate.calls", mode=mode)
        recorder.incr("evaluate.dijkstra_sources", int(distinct.size))
        if sampled:
            recorder.incr("evaluate.sampled_draws", int(sources.size))
            if errors[0] is not None:
                recorder.gauge("evaluate.standard_error_ms", errors[0])
        return DelayEvaluation(
            source_ids=sources,
            target_fractions=targets,
            reach_times_ms=reach,
            num_nodes=int(candidates.size),
            sampled=sampled,
            standard_error_ms=errors,
        )


def _mean_standard_error(values: np.ndarray) -> float | None:
    """Standard error of the mean over the finite sampled reach times.

    Sampled draws are i.i.d. (with replacement), so the plain
    ``std / sqrt(S)`` formula applies directly.
    """
    finite = values[np.isfinite(values)]
    if finite.size < 2:
        return None
    return float(np.std(finite, ddof=1) / np.sqrt(finite.size))


#: Shared default-policy evaluator (exact at paper scale, sampled at 20k+).
DEFAULT_EVALUATOR = DelayEvaluator()
