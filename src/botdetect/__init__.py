"""Batch botnet detection over network flow records.

The pipeline filters whitelisted and half-open traffic, labels flows by
application from payload prefixes, clusters hosts whose per-destination
flow shapes match, scores hosts for scanning and spam fan-out, and reports
groups of hosts that are both behaviorally similar and malicious.
"""

from .classify import AppLabel, classify_flow, partition_by_label
from .filtering import FilterOutput, Whitelist, parse_whitelist, run_filter
from .flowfile import parse_flow_file, write_flow_file
from .model import (
    DetectorConfig,
    FlowRecord,
    OsdMode,
    Proto,
    TcpState,
    default_config,
    parse_config,
    validate_flow,
)
from .pipeline import run_detection
from .report import BotnetGroup, BotnetReport, report_to_json
from .similarity import FlowFeatures, build_curve, cluster_groups, curve_similarity, flow_features
from .table import FlowTable

# the generator's names load on first use (PEP 562), so importing the
# package for detection does not compile and import synth
_SYNTH_NAMES = frozenset({"GroundTruth", "PlantedGroup", "PlantedKind", "ScenarioSpec", "generate"})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AppLabel",
    "BotnetGroup",
    "BotnetReport",
    "DetectorConfig",
    "FilterOutput",
    "FlowFeatures",
    "FlowRecord",
    "FlowTable",
    "GroundTruth",
    "OsdMode",
    "PlantedGroup",
    "PlantedKind",
    "Proto",
    "ScenarioSpec",
    "TcpState",
    "Whitelist",
    "build_curve",
    "classify_flow",
    "cluster_groups",
    "curve_similarity",
    "default_config",
    "flow_features",
    "generate",
    "parse_config",
    "parse_flow_file",
    "parse_whitelist",
    "partition_by_label",
    "report_to_json",
    "run_detection",
    "run_filter",
    "validate_flow",
    "write_flow_file",
]
