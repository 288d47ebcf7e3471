"""The benchmark workloads: inputs, one operation, and its output checks.

Every operation goes through the public API, ``ExperimentSpec.run``.  A run
of a workload performs a fixed list of operations whose seeds all derive
from the workload seed (:func:`operation_seeds`); how many depends only on
``--seconds`` and the workload's :attr:`Workload.nominal_seconds`, never on
how fast the operations complete, so a faster commit runs the same mix.
"""

from __future__ import annotations

import zlib
from typing import Any

import numpy as np

from layerbench import checks

#: "About a million" synthetic users per collection.
N_USERS = 1_000_000
#: Trace series per classification dataset: the Table V benchmark's size
#: (``benchmarks/helpers.py``, ``PRIVSHAPE_BENCH_USERS`` default).
TRACE_SERIES = 20_000
#: Held-out series scored per classification (Table V's evaluation size).
EVALUATION_SIZE = 500
#: PatternLDP training cap and forest size.  Table V uses 800 series and 15
#: trees; one such operation takes 12-18 s here, too long to take a median
#: of several operations in one run, so the benchmark halves the cap.
TRAIN_SIZE = 400
FOREST_SIZE = 10
#: Series sampled per operation for the SAX and PID reference checks.
SAX_SAMPLE = 25
PID_SAMPLE = 10
#: "Clearly above" the 1/3 accuracy of guessing among three classes: more
#: than five standard deviations of chance accuracy on 500 test series.
PRIVSHAPE_ACCURACY_FLOOR = 0.45
#: "Far above chance" for the clean forest.
CLEAN_FOREST_ACCURACY_FLOOR = 0.9
#: Traced operations run untraced and then traced, so a traced run does
#: fewer of them in the same time.
TRACE_COST_FACTOR = 2.5


def derive_seed(seed: int, tag: Any) -> int:
    """A 31-bit seed derived from the workload seed and a tag."""
    return zlib.crc32(f"{seed}:{tag}".encode()) & 0x7FFFFFFF


def operation_seeds(seed: int, count: int) -> list[int]:
    return [derive_seed(seed, index) for index in range(count)]


def _spec(metric: str, mechanism: str = "privshape", options: dict | None = None):
    """epsilon 4, t 4, w 10: the settings of every workload."""
    from repro.api import CollectionSpec, ExperimentSpec, PrivacySpec, SAXSpec

    return ExperimentSpec(
        mechanism=mechanism,
        privacy=PrivacySpec(epsilon=4.0),
        sax=SAXSpec(alphabet_size=4, segment_length=10),
        collection=CollectionSpec(metric=metric),
        options=options or {},
    )


class Workload:
    """One named workload; subclasses fill in the operation.

    Construction imports nothing, so a program that fails to build a spec
    fails in :meth:`build_inputs`, and the run counts the operations failed.
    """

    name = ""
    #: Seconds one untraced operation takes today on the 2-CPU reference
    #: machine when no other tenant slows it.  Fixes the operation count
    #: per ``--seconds``.
    nominal_seconds = 1.0
    #: Users (or series, one per user) one operation processes.
    population = 0
    #: ``(module, qualname)`` of functions whose calls :meth:`observe` sees
    #: while an untraced operation runs.
    recorded: tuple[tuple[str, str], ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.spec = None

    def operation_count(self, seconds: float, traced: bool) -> int:
        if traced:
            return max(1, round(seconds / (self.nominal_seconds * TRACE_COST_FACTOR)))
        return max(3, round(seconds / self.nominal_seconds))

    def build_inputs(self, seeds: list[int]) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, seed: int):
        raise NotImplementedError

    def reset(self) -> None:
        """Forget what :meth:`observe` folded during the previous operation."""

    def observe(self, args: tuple, result) -> None:
        """Fold one recorded call into what :meth:`check` reads."""

    def check(self, seed: int, result, first: bool) -> None:
        raise NotImplementedError


class Collect(Workload):
    """About a million synthetic users collected by the round protocol."""

    recorded = (
        ("repro.service.aggregator", "ShardedAggregator.consume"),
        ("repro.service.aggregator", "ShardedAggregator.consume_shard"),
    )
    population = N_USERS
    backend = "inline"
    options: dict[str, Any] = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.data: dict[int, Any] = {}
        self.templates: dict[int, list[str]] = {}
        #: Reports the aggregator consumed per user id, and per round.
        self.reported = np.zeros(0, dtype=np.uint8)
        self.round_reports: dict[int, int] = {}
        #: Reports that came in a batch holding a user id outside [0, n).
        self.stray_reports = 0

    def _data(self, seed: int, n_users: int = N_USERS):
        from repro.api import DataSpec

        return DataSpec(source="synthetic", n_users=n_users, seed=seed)

    def build_inputs(self, seeds: list[int]) -> None:
        self.spec = _spec("dtw")
        for seed in seeds:
            data = self._data(seed)
            stream = data.build_population(self.spec)[0]
            order = sorted(range(len(stream.templates)), key=lambda i: -stream.weights[i])
            self.data[seed] = data
            self.templates[seed] = ["".join(stream.templates[i]) for i in order]
        self.reported = np.zeros(N_USERS, dtype=np.uint8)

    def warm_up(self) -> None:
        seed = derive_seed(self.seed, "warm-up")
        self.spec.run(self._data(seed, 20_000), seed=seed, backend=self.backend, **self.options)

    def run(self, seed: int):
        return self.spec.run(self.data[seed], seed=seed, backend=self.backend, **self.options)

    def reset(self) -> None:
        self.reported.fill(0)
        self.round_reports.clear()
        self.stray_reports = 0

    def observe(self, args: tuple, result) -> None:
        """Count one consumed batch's reports per user id and per round."""
        batch = args[-1]
        ids = batch.user_ids
        if len(ids) and (ids.min() < 0 or ids.max() >= self.reported.size):
            self.stray_reports += len(ids)
        else:
            self.reported[ids] += 1
        self.round_reports[batch.round_index] = (
            self.round_reports.get(batch.round_index, 0) + len(ids)
        )

    def check(self, seed: int, result, first: bool) -> None:
        checks.check_reports_once(
            self.reported, sum(self.round_reports.values()), self.stray_reports
        )
        rounds = [
            (entry["kind"], int(entry.get("participants", entry.get("reports"))))
            for entry in result.rounds
        ]
        checks.require(
            [self.round_reports.get(entry["round"], 0) for entry in result.rounds]
            == [count for _, count in rounds],
            "per-round report counts differ from what the aggregator consumed",
        )
        checks.check_round_sizes(
            rounds, N_USERS, self.spec.collection.population_fractions
        )
        checks.check_user_level_budget(result.accounting, self.spec.privacy.epsilon)
        ranked = sorted(result.estimates, key=lambda entry: -entry["estimated_count"])
        checks.check_top_shape(
            [entry["shape"] for entry in ranked], self.templates[seed]
        )


class CollectInline(Collect):
    name = "collect-inline"
    nominal_seconds = 1.7


class CollectGateway(Collect):
    name = "collect-gateway"
    nominal_seconds = 2.4
    backend = "gateway"
    #: One in-process client connection, closed loop, gateway on a thread.
    options = {"workers": 0}

    def check(self, seed: int, result, first: bool) -> None:
        super().check(seed, result, first)
        if first:
            inline = self.spec.run(self.data[seed], seed=seed)
            checks.require(
                inline.fingerprint() == result.fingerprint(),
                "gateway fingerprint differs from the inline run at the same seed",
            )


class Classify(Workload):
    """Table V's Trace classification at epsilon 4, t 4, w 10, SED."""

    #: Series of the warm-up call's dataset: enough users that every
    #: PrivShape population group gets members, few enough to be quick.
    warm_up_series = 1000
    population = TRACE_SERIES

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.dataset = None

    def make_spec(self):
        raise NotImplementedError

    def build_inputs(self, seeds: list[int]) -> None:
        from repro.datasets import trace_like

        self.spec = self.make_spec()
        self.dataset = trace_like(
            n_instances=TRACE_SERIES, rng=derive_seed(self.seed, "dataset")
        )

    def warm_up(self) -> None:
        seed = derive_seed(self.seed, "warm-up")
        small = self.dataset.subsample(self.warm_up_series, rng=seed)
        self.spec.run(small, task="classify", seed=seed, evaluation_size=30)

    def run(self, seed: int):
        return self.spec.run(
            self.dataset, task="classify", seed=seed, evaluation_size=EVALUATION_SIZE
        )

    def _sample(self, seed: int, size: int) -> list:
        picks = np.random.default_rng(seed).choice(len(self.dataset), size, replace=False)
        return [self.dataset.series[i] for i in picks]

    def check(self, seed: int, result, first: bool) -> None:
        checks.check_labelled_shapes(
            result.estimates, self.dataset.n_classes, "".join(self.spec.sax.alphabet)
        )


class ClassifyPrivShape(Classify):
    name = "classify-privshape"
    nominal_seconds = 2.0

    def make_spec(self):
        return _spec("sed")

    def check(self, seed: int, result, first: bool) -> None:
        super().check(seed, result, first)
        sax = self.spec.sax
        checks.check_sax(
            sax.build_transformer(), self._sample(seed, SAX_SAMPLE),
            sax.alphabet_size, sax.segment_length,
        )
        checks.check_accuracy(
            result.metrics["accuracy"], PRIVSHAPE_ACCURACY_FLOOR, "PrivShape"
        )


class ClassifyPatternLDP(Classify):
    name = "classify-patternldp"
    nominal_seconds = 3.6
    #: Below the training cap, so the warm-up perturbs and fits little.
    warm_up_series = 60
    recorded = (("repro.baselines.patternldp", "PatternLDP.perturb_series"),)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: ``(series length, PerturbedSeries)`` of every series perturbed.
        self.perturbed: list[tuple[int, Any]] = []

    def make_spec(self):
        return _spec(
            "sed",
            mechanism="patternldp",
            options={
                "train_size": TRAIN_SIZE,
                "forest_size": FOREST_SIZE,
                "sample_fraction": 0.1,
                "min_points": 8,
            },
        )

    def reset(self) -> None:
        self.perturbed.clear()

    def observe(self, args: tuple, result) -> None:
        self.perturbed.append((len(args[1]), result))

    def check(self, seed: int, result, first: bool) -> None:
        from repro.baselines.pid import PIDImportanceScorer

        super().check(seed, result, first)
        options = self.spec.options
        checks.require(
            len(self.perturbed) == TRAIN_SIZE,
            f"{len(self.perturbed)} series perturbed, expected the training cap {TRAIN_SIZE}",
        )
        for length, perturbed in self.perturbed:
            checks.check_perturbed_series(
                perturbed, length, self.spec.privacy.epsilon,
                options["sample_fraction"], options["min_points"],
            )
        checks.check_pid_errors(PIDImportanceScorer(), self._sample(seed, PID_SAMPLE))
        if first:
            self._check_clean_forest(seed)

    def _check_clean_forest(self, seed: int) -> None:
        """The same forest on clean series must classify far above chance."""
        from repro.mining.forest import RandomForestClassifier

        train, test = self.dataset.train_test_split(test_fraction=0.3, rng=seed)
        train = train.subsample(TRAIN_SIZE, rng=seed)
        test = test.subsample(EVALUATION_SIZE, rng=seed)
        forest = RandomForestClassifier(n_estimators=FOREST_SIZE, rng=seed)
        forest.fit_series(train.series, train.labels)
        accuracy = float(np.mean(forest.predict_series(test.series) == test.labels))
        checks.check_accuracy(accuracy, CLEAN_FOREST_ACCURACY_FLOOR, "clean-series forest")


WORKLOADS = {
    workload.name: workload
    for workload in (CollectInline, CollectGateway, ClassifyPrivShape, ClassifyPatternLDP)
}
