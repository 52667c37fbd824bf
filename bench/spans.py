"""Span tracing of one ``botdetect detect`` call, from outside the program.

:class:`Tracer` replaces each layer's public functions under the names
their callers import them by (``pipeline.run_filter``, ``cli.parse_flow_file``,
...), so the real ``run_detection`` runs unchanged.  Each wrapped call
records a span (name, start, end, parent) and the counts its result shows.
A layer's self time is its spans' durations minus the time of their child
spans.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

from botdetect import cli, pipeline, similarity

ROOT_SPAN = "cli.detect"

# metric name -> span name whose self time it sums
SELF_TIME_METRICS = {
    "flowfile.parse_s": "flowfile.parse",
    "filtering.run_filter_s": "filtering.run_filter",
    "classify.partition_s": "classify.partition",
    "monitors.window_partition_s": "monitors.window_partition",
    "monitors.group_p2p_s": "monitors.group_p2p",
    "monitors.group_irc_s": "monitors.group_irc",
    "similarity.cluster_p2p_s": "similarity.cluster_p2p",
    "similarity.cluster_irc_s": "similarity.cluster_irc",
    "similarity.build_curve_s": "similarity.build_curve",
    "similarity.curve_similarity_s": "similarity.curve_similarity",
    "activity.window_activity_s": "activity.window_activity",
    "report.correlate_s": "report.correlate",
    "report.serialize_s": "report.serialize",
    "pipeline.self_s": "pipeline.run_detection",
    "cli.io_s": ROOT_SPAN,
}

COUNT_METRICS = (
    "flowfile.rows",
    "filtering.whitelisted",
    "filtering.failed",
    "classify.irc",
    "classify.http",
    "classify.other",
    "monitors.p2p_groups",
    "monitors.irc_groups",
    "monitors.skipped",
    "similarity.build_curve_calls",
    "similarity.pairs_total",
    "similarity.pairs_scored",
    "similarity.pairs_linked",
    "similarity.clusters",
    "activity.hosts_scored",
    "activity.malicious_hosts",
    "report.groups",
)


class LayerUntraced(RuntimeError):
    """A layer function is gone or recorded no call, so its metrics would read 0."""


class Tracer:
    """Records spans and counts while installed; restores every name on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._cluster_path = "p2p"
        self._threshold = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        self._wrap(cli, "parse_flow_file", "flowfile.parse", self._on_parse)
        self._wrap(cli, "run_detection", "pipeline.run_detection")
        self._wrap(cli, "report_to_json", "report.serialize")
        self._wrap(pipeline, "run_filter", "filtering.run_filter", self._on_filter)
        self._wrap(pipeline, "partition_by_label", "classify.partition", self._on_partition)
        self._wrap(pipeline, "window_partition", "monitors.window_partition")
        self._wrap(pipeline, "group_flows_p2p", "monitors.group_p2p", self._on_group("p2p"))
        self._wrap(pipeline, "group_flows_irc", "monitors.group_irc", self._on_group("irc"))
        self._wrap(pipeline, "cluster_groups", self._cluster_span, self._on_cluster)
        self._wrap(similarity, "build_curve", "similarity.build_curve")
        self._wrap(
            similarity, "curve_similarity", "similarity.curve_similarity", self._on_similarity
        )
        self._wrap(pipeline, "window_activity", "activity.window_activity", self._on_activity)
        for name in ("correlate_p2p", "correlate_irc"):
            self._wrap(pipeline, name, "report.correlate")
        self._wrap(pipeline, "build_report", "report.correlate", self._on_report)

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, module, attr: str, span: str | Callable, on_result=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            raise LayerUntraced(f"{module.__name__}.{attr} is gone; trace its new caller")
        self._saved.append((module, attr, original))
        setattr(module, attr, self._traced(span, original, on_result))

    def _traced(self, span: str | Callable, fn: Callable, on_result=None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = span(args) if callable(span) else span
            index = len(spans)
            parent = stack[-1]
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def call(self, fn: Callable[[], object]):
        """Run ``fn`` under the root span (the whole ``detect`` call)."""
        return self._traced(ROOT_SPAN, fn)()

    # --- counts from results ------------------------------------------

    def _on_parse(self, args, rows) -> None:
        self.counts["flowfile.rows"] += len(rows)

    def _on_filter(self, args, out) -> None:
        self.counts["filtering.whitelisted"] += out.whitelisted_count
        self.counts["filtering.failed"] += len(out.failed)

    def _on_partition(self, args, streams) -> None:
        irc, http, other = streams
        self.counts["classify.irc"] += len(irc)
        self.counts["classify.http"] += len(http)
        self.counts["classify.other"] += len(other)

    def _on_group(self, path: str):
        def record(args, result) -> None:
            self._cluster_path = path  # the next cluster_groups call clusters these groups
            self.counts[f"monitors.{path}_groups"] += len(result.groups)
            self.counts["monitors.skipped"] += result.skipped

        return record

    def _cluster_span(self, args) -> str:
        self._threshold = args[1]
        return f"similarity.cluster_{self._cluster_path}"

    def _on_cluster(self, args, clusters) -> None:
        n = len(args[0])
        self.counts["similarity.pairs_total"] += n * (n - 1) // 2
        self.counts["similarity.clusters"] += len(clusters)

    def _on_similarity(self, args, score) -> None:
        self.counts["similarity.pairs_linked"] += score >= self._threshold

    def _on_activity(self, args, activity) -> None:
        self.counts["activity.hosts_scored"] += len(activity)
        self.counts["activity.malicious_hosts"] += sum(act.malicious for act in activity.values())

    def _on_report(self, args, report) -> None:
        self.counts["report.groups"] += len(report.groups)

    # --- derived metrics ----------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding the time of child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return dict(totals)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        self_s = self.self_times()
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": self_s[name]} for name in self_s}
        for name, start, end, _ in self.spans:
            out[name]["calls"] += 1
            out[name]["total_s"] += end - start
        return dict(sorted(out.items()))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of one traced call.

        Raises :class:`LayerUntraced` when a wrapped layer saw no call.
        """
        called = Counter(name for name, *_ in self.spans)
        missing = sorted(set(SELF_TIME_METRICS.values()) - set(called))
        if missing:
            raise LayerUntraced(f"traced run recorded no call of: {', '.join(missing)}")
        self_s = self.self_times()
        out: dict[str, float] = {m: self_s[span] for m, span in SELF_TIME_METRICS.items()}
        counts = {
            **self.counts,
            "similarity.build_curve_calls": called["similarity.build_curve"],
            "similarity.pairs_scored": called["similarity.curve_similarity"],
        }
        out.update({m: float(counts.get(m, 0)) for m in COUNT_METRICS})
        total = out["similarity.pairs_total"]
        out["similarity.scored_ratio"] = out["similarity.pairs_scored"] / total if total else 0.0
        return out
