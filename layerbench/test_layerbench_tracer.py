"""Tests of the benchmark's own tracer (quick: tier-1 collects this file)."""

from __future__ import annotations

import argparse
import sys
import time
import types

import pytest

from layerbench import layers
from layerbench.tracer import (
    Span,
    Target,
    Tracer,
    layer_seconds,
    recording,
    self_seconds,
    uncovered_seconds,
)


def _span(id_, start, end, parent=-1, metric="m", thread=1):
    return Span(id_, f"s{id_}", metric, thread, float(start), float(end), parent)


# ----------------------------------------------------------- self time


def test_nested_spans_subtract_their_children():
    spans = [
        _span(0, 0, 10, metric="outer"),
        _span(1, 2, 5, parent=0, metric="middle"),
        _span(2, 3, 4, parent=1, metric="inner"),
    ]
    assert self_seconds(spans) == {0: 7.0, 1: 2.0, 2: 1.0}
    assert layer_seconds(spans) == {"outer": 7.0, "middle": 2.0, "inner": 1.0}


def test_sibling_spans_are_subtracted_once_where_they_overlap():
    disjoint = [_span(0, 0, 10), _span(1, 1, 3, parent=0), _span(2, 4, 8, parent=0)]
    assert self_seconds(disjoint)[0] == 4.0
    overlapping = [_span(0, 0, 10), _span(1, 1, 5, parent=0), _span(2, 4, 8, parent=0)]
    assert self_seconds(overlapping)[0] == 3.0
    same_metric = [_span(0, 0, 10), _span(1, 1, 3, parent=0), _span(2, 4, 8, parent=0)]
    assert layer_seconds(same_metric) == {"m": 10.0}


def test_spans_on_two_threads_do_not_cover_each_other():
    spans = [
        _span(0, 0, 10, thread=1, metric="client"),
        _span(1, 2, 6, thread=2, metric="server"),
        _span(2, 3, 4, parent=1, thread=2, metric="decode"),
    ]
    assert layer_seconds(spans) == {"client": 10.0, "server": 3.0, "decode": 1.0}
    assert uncovered_seconds(spans, 0.0, 12.0, thread=1) == 2.0
    assert uncovered_seconds(spans, 0.0, 12.0, thread=2) == 8.0
    assert uncovered_seconds(spans, 1.0, 3.0, thread=2) == 1.0


# -------------------------------------------------------------- wrapping


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("layerbench_fake_layer")

    def inner(n):
        for i in range(n):
            yield (list(range(i + 1)), None)

    def outer(n):
        yield from module.inner(n)

    def leaf(x):
        return x * 2

    module.inner, module.outer, module.leaf = inner, outer, leaf
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_delegating_generators_are_timed_per_next_and_counted_once(fake_module):
    name = fake_module.__name__
    count = layers._add("rows", lambda args, kwargs, item: len(item[0]))
    tracer = Tracer()
    with tracer.installed([
        Target(name, "outer", "gen_s", generator=True, count=count, group="rows"),
        Target(name, "inner", "gen_s", generator=True, count=count, group="rows"),
        Target(name, "leaf", None, count=layers._add("leaf_calls")),
    ]):
        assert [len(rows) for rows, _ in fake_module.outer(3)] == [1, 2, 3]
        assert fake_module.leaf(4) == 8
    assert tracer.counts["rows"] == 6
    assert tracer.counts["leaf_calls"] == 1
    # four nexts of each generator, the last one ending the iteration
    assert sum(span.name.endswith(".outer") for span in tracer.spans) == 4
    assert sum(span.name.endswith(".inner") for span in tracer.spans) == 4
    assert fake_module.outer.__name__ == "outer"  # original back in place


def test_a_missing_target_is_reported_and_its_layer_reads_zero(fake_module):
    tracer = Tracer()
    with tracer.installed([
        Target(fake_module.__name__, "gone", "encode.length_s"),
        Target("layerbench_no_such_module", "f", "encode.length_s"),
        Target(fake_module.__name__, "leaf", "encode.expand_s"),
    ]):
        start = time.perf_counter()
        fake_module.leaf(1)
        end = time.perf_counter()
    assert tracer.missing == [
        f"{fake_module.__name__}.gone", "layerbench_no_such_module.f",
    ]
    values = layers.operation_metrics(
        tracer, start=start, end=end, thread=tracer.spans[0].thread,
        population=1, untraced_seconds=0.0,
    )
    assert values["encode.length_s"] == 0.0
    assert values["encode.expand_s"] > 0.0
    with pytest.raises(LookupError):
        with recording([(fake_module.__name__, "gone")], lambda args, result: None):
            pass


class _FakeWorkload:
    """Runs ``leaf`` of the fake module; records its calls."""

    population = 1

    def __init__(self, module) -> None:
        self.module = module
        self.recorded = ((module.__name__, "leaf"),)
        self.seen: list[int] = []

    def reset(self):
        self.seen.clear()

    def observe(self, args, result):
        self.seen.append(result)

    def run(self, seed):
        class Result:
            metrics = {"accuracy": 1.0}

            def fingerprint(self):
                return {"value": 1}

        self.module.leaf(seed)
        return Result()

    def check(self, seed, result, first):
        assert self.seen == [2 * seed]


def test_a_run_whose_targets_are_gone_still_completes(fake_module, monkeypatch):
    from layerbench import run as bench_run

    monkeypatch.setattr(
        layers, "TARGETS", (Target(fake_module.__name__, "gone", "encode.length_s"),)
    )
    args = argparse.Namespace(workload="fake", seed=0, seconds=1.0, trace=1)
    run = bench_run.Run(args)
    run.execute(_FakeWorkload(fake_module), [1, 2])
    assert (run.attempted, run.failed, run.correct) == (2, 0, True)
    assert run.metrics(population=1)["encode.length_s"]["value"] == 0.0


def test_operations_past_the_deadline_count_as_failed(fake_module, monkeypatch):
    from layerbench import run as bench_run

    monkeypatch.setattr(bench_run, "DEADLINE_S", -1.0)
    args = argparse.Namespace(workload="fake", seed=0, seconds=1.0, trace=0)
    run = bench_run.Run(args)
    run.execute(_FakeWorkload(fake_module), [1, 2, 3])
    assert (run.attempted, run.failed, run.correct) == (3, 2, True)
    assert len(run.seconds) == 1


def test_reports_are_counted_once_per_user_even_within_a_batch():
    import numpy as np

    from layerbench.checks import CheckFailed, check_reports_once
    from layerbench.workloads import CollectInline

    class Batch:
        def __init__(self, round_index, ids):
            self.round_index = round_index
            self.user_ids = np.asarray(ids, dtype=np.int64)

    workload = CollectInline(0)
    workload.reported = np.zeros(4, dtype=np.uint8)
    for batches, fault in (
        ([Batch(0, [0, 1]), Batch(1, [2, 3])], None),
        ([Batch(0, [0, 1]), Batch(1, [1, 3])], "1 users never reported, 1 reported"),
        ([Batch(0, [0, 1]), Batch(1, [2, 2])], "1 users never reported, 0 reported"),
        ([Batch(0, [0, 1]), Batch(1, [2, 4])], "2 reports came with user ids"),
    ):
        workload.reset()
        for batch in batches:
            workload.observe((None, batch), None)
        assert workload.round_reports == {0: 2, 1: 2}
        args = (workload.reported, sum(workload.round_reports.values()),
                workload.stray_reports)
        if fault is None:
            check_reports_once(*args)
        else:
            with pytest.raises(CheckFailed, match=fault):
                check_reports_once(*args)


# ------------------------------------------------- tracing draws nothing


def _small_operations():
    from repro.api import CollectionSpec, DataSpec, ExperimentSpec, PrivacySpec, SAXSpec
    from repro.datasets import trace_like

    collect = ExperimentSpec(
        privacy=PrivacySpec(epsilon=4.0), sax=SAXSpec(alphabet_size=4),
        collection=CollectionSpec(metric="dtw"),
    )
    population = DataSpec(source="synthetic", n_users=20_000, seed=5)
    dataset = trace_like(n_instances=240, rng=5)
    classify = ExperimentSpec(
        privacy=PrivacySpec(epsilon=4.0), sax=SAXSpec(alphabet_size=4, segment_length=10),
        collection=CollectionSpec(metric="sed"),
    )
    patternldp = ExperimentSpec(
        mechanism="patternldp", privacy=PrivacySpec(epsilon=4.0),
        sax=SAXSpec(alphabet_size=4, segment_length=10),
        collection=CollectionSpec(metric="sed"),
        options={"train_size": 40, "forest_size": 3},
    )
    return {
        "collect-inline": lambda: collect.run(population, seed=3),
        "collect-gateway": lambda: collect.run(
            population, seed=3, backend="gateway", workers=0
        ),
        "classify-privshape": lambda: classify.run(
            dataset, task="classify", seed=3, evaluation_size=30
        ),
        "classify-patternldp": lambda: patternldp.run(
            dataset, task="classify", seed=3, evaluation_size=30
        ),
    }


@pytest.mark.parametrize(
    "name",
    ["collect-inline", "collect-gateway", "classify-privshape", "classify-patternldp"],
)
def test_a_traced_operation_returns_the_untraced_fingerprint(name):
    from repro.service.client import ClientReporter

    operation = _small_operations()[name]
    original = ClientReporter.make_reports
    untraced = operation()
    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        traced = operation()
    assert tracer.missing == []
    assert tracer.spans
    assert traced.fingerprint() == untraced.fingerprint()
    assert traced.metrics.get("accuracy") == untraced.metrics.get("accuracy")
    assert ClientReporter.make_reports is original
