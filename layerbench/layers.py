"""Which program functions belong to which layer, and the per-layer metrics.

Each :class:`~layerbench.tracer.Target` names one public function of a
layer; its span's self time goes to the layer's ``*_s`` metric.  Counts are
taken at the same boundaries.  :func:`operation_metrics` turns the spans and
counts of one traced operation into the per-layer metrics ``run.py`` prints.
"""

from __future__ import annotations

from layerbench.tracer import Target, Tracer, layer_seconds, uncovered_seconds

#: Per-layer metrics in output order: name -> (unit, better).
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "setup.inputs_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "population.gen_s": ("s", "lower"),
    "population.rows_per_user": ("rows/user", "lower"),
    "plan.select_s": ("s", "lower"),
    "plan.kept_ratio": ("ratio", "higher"),
    "encode.length_s": ("s", "lower"),
    "encode.subshape_s": ("s", "lower"),
    "encode.expand_s": ("s", "lower"),
    "encode.refine_s": ("s", "lower"),
    "encode.reports": ("count", "lower"),
    "encode.distance_calls": ("count", "lower"),
    "em.sample_calls": ("count", "lower"),
    "aggregate.s": ("s", "lower"),
    "estimate.s": ("s", "lower"),
    "estimate.rounds": ("count", "lower"),
    "frame.encode_s": ("s", "lower"),
    "frame.bytes_per_report": ("B/report", "lower"),
    "transport.wait_s": ("s", "lower"),
    "transport.requests": ("count", "lower"),
    "server.decode_s": ("s", "lower"),
    "server.validate_s": ("s", "lower"),
    "server.route_s": ("s", "lower"),
    "gateway.boot_s": ("s", "lower"),
    "dataset.split_s": ("s", "lower"),
    "sax.s": ("s", "lower"),
    "sax.series_per_user": ("count", "lower"),
    "extract.self_s": ("s", "lower"),
    "measures.s": ("s", "lower"),
    "classify.predict_s": ("s", "lower"),
    "forest.fit_s": ("s", "lower"),
    "forest.predict_s": ("s", "lower"),
    "perturb.s": ("s", "lower"),
    "pid.errors_s": ("s", "lower"),
    "pid.calls_per_series": ("count", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Refinement with class labels is encoded like plain refinement.
_ENCODE_METRIC = {
    "length": "encode.length_s",
    "subshape": "encode.subshape_s",
    "expand": "encode.expand_s",
    "refine": "encode.refine_s",
    "refine_labeled": "encode.refine_s",
}


def _encode_metric(position: int):
    def pick(args: tuple, kwargs: dict) -> str:
        spec = args[position] if len(args) > position else kwargs.get("spec")
        return _ENCODE_METRIC.get(getattr(spec, "kind", None), "encode.unknown_s")

    return pick


def _add(key: str, amount=lambda args, kwargs, result: 1):
    def count(counts: dict, args: tuple, kwargs: dict, result) -> None:
        counts[key] += amount(args, kwargs, result)

    return count


def _mask_counts(counts: dict, args: tuple, kwargs: dict, mask) -> None:
    counts["plan.examined"] += len(mask)
    counts["plan.kept"] += int(mask.sum())


_rows = _add("population.rows", lambda args, kwargs, item: len(item[0]))
_reports = _add("encode.reports", lambda args, kwargs, result: len(result))


def _population(qualname: str, generator: bool = False, count=None) -> Target:
    return Target("repro.service.population", qualname, "population.gen_s",
                  generator=generator, count=count, group="rows" if generator else None)


TARGETS: tuple[Target, ...] = (
    # population source: regeneration / materialization, rows yielded
    _population("SyntheticShapeStream.iter_range", True, _rows),
    _population("SyntheticShapeStream.iter_batches", True, _rows),
    _population("EncodedPopulation.iter_range", True, _rows),
    _population("EncodedPopulation.iter_batches", True, _rows),
    _population("EncodedPopulation.take"),
    _population("EncodedPopulation.from_sequences"),
    # participant selection
    Target("repro.service.plan", "CollectionPlan.participant_mask", "plan.select_s",
           count=_mask_counts),
    # client encode, split by round kind
    Target("repro.service.client", "ClientReporter.make_reports", _encode_metric(1),
           count=_reports),
    Target("repro.core.privshape", "encode_reports", _encode_metric(0), count=_reports),
    Target("repro.service.rounds", "shape_distance", None,
           count=_add("encode.distance_calls")),
    Target("repro.core.selection", "shape_distance", None,
           count=_add("encode.distance_calls")),
    Target("repro.ldp.exponential", "ExponentialMechanism.sample_from_cdf", None,
           count=_add("em.sample_calls")),
    # aggregation
    Target("repro.service.aggregator", "ShardedAggregator.consume", "aggregate.s"),
    Target("repro.service.aggregator", "ShardedAggregator.consume_shard", "aggregate.s"),
    Target("repro.service.aggregator", "ShardedAggregator.finalize_round", "aggregate.s"),
    Target("repro.service.aggregator", "accumulate", "aggregate.s"),
    Target("repro.core.privshape", "accumulate", "aggregate.s"),
    # server-side estimation
    Target("repro.service.protocol", "PrivShapeEngine.open_round", "estimate.s"),
    Target("repro.service.protocol", "PrivShapeEngine.close_round", "estimate.s",
           count=_add("estimate.rounds")),
    Target("repro.service.protocol", "PrivShapeEngine.finalize", "estimate.s"),
    Target("repro.service.protocol", "PrivShapeEngine.finalize_labeled", "estimate.s"),
    # wire, client side
    Target("repro.server.client", "batch_to_wire", "frame.encode_s"),
    Target("repro.server.client", "encode_message", "frame.encode_s",
           count=_add("frame.bytes", lambda args, kwargs, result: len(result))),
    Target("repro.service.reports", "ReportBatch.to_bytes", "frame.encode_s"),
    Target("repro.server.client", "GatewayClient.request", "transport.wait_s",
           count=_add("transport.requests")),
    # gateway thread
    Target("repro.server.base", "decode_message", "server.decode_s"),
    Target("repro.server.gateway", "batch_from_wire", "server.decode_s"),
    Target("repro.service.reports", "ReportBatch.from_bytes", "server.decode_s"),
    Target("repro.service.reports", "ReportBatch.validate_against", "server.validate_s"),
    Target("repro.service.aggregator", "ShardedAggregator.route", "server.route_s",
           generator=True),
    Target("repro.server.gateway", "CollectionGateway.__init__", "gateway.boot_s"),
    Target("repro.server.testing", "serve_in_thread", "gateway.boot_s"),
    Target("repro.server.testing", "ServerHandle.stop", "gateway.boot_s"),
    # paper tasks
    Target("repro.datasets.base", "LabeledDataset.train_test_split", "dataset.split_s"),
    Target("repro.datasets.base", "LabeledDataset.subsample", "dataset.split_s"),
    Target("repro.sax.compressive", "CompressiveSAX.transform", "sax.s",
           count=_add("sax.series")),
    Target("repro.sax.compressive", "CompressiveSAX.transform_dataset", "sax.s"),
    Target("repro.core.privshape", "PrivShape.extract_labeled", "extract.self_s"),
    Target("repro.core.pipeline", "ground_truth_shapes", "measures.s"),
    Target("repro.core.pipeline", "shape_quality_measures", "measures.s"),
    Target("repro.mining.nearest", "NearestShapeClassifier.predict", "classify.predict_s"),
    Target("repro.mining.forest", "RandomForestClassifier.fit", "forest.fit_s"),
    Target("repro.mining.forest", "RandomForestClassifier.fit_series", "forest.fit_s"),
    Target("repro.mining.forest", "RandomForestClassifier.predict_proba", "forest.predict_s"),
    Target("repro.baselines.patternldp", "PatternLDP.perturb_dataset", "perturb.s"),
    Target("repro.baselines.patternldp", "PatternLDP.perturb_series", "perturb.s",
           count=_add("perturb.series")),
    Target("repro.baselines.pid", "PIDImportanceScorer.errors", "pid.errors_s",
           count=_add("pid.calls")),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def operation_metrics(
    tracer: Tracer,
    *,
    start: float,
    end: float,
    thread: int,
    population: int,
    untraced_seconds: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced operation (setup.* excluded)."""
    seconds = layer_seconds(tracer.spans)
    counts = tracer.counts
    values = {
        name: seconds.get(name, 0.0)
        for name, (unit, _) in PER_LAYER.items()
        if unit == "s" and not name.startswith("setup.")
    }
    values.update(
        {
            "population.rows_per_user": _ratio(counts["population.rows"], population),
            "plan.kept_ratio": _ratio(counts["plan.kept"], counts["plan.examined"]),
            "encode.reports": counts["encode.reports"],
            "encode.distance_calls": counts["encode.distance_calls"],
            "em.sample_calls": counts["em.sample_calls"],
            "estimate.rounds": counts["estimate.rounds"],
            "frame.bytes_per_report": _ratio(counts["frame.bytes"], counts["encode.reports"]),
            "transport.requests": counts["transport.requests"],
            "sax.series_per_user": _ratio(counts["sax.series"], population),
            "pid.calls_per_series": _ratio(counts["pid.calls"], counts["perturb.series"]),
            "unattributed_s": uncovered_seconds(tracer.spans, start, end, thread),
            "trace.overhead_s": (end - start) - untraced_seconds,
        }
    )
    return values
