"""Experiment harness: presets, builder/runner, and report formatting."""

from repro.harness.presets import (
    CHAOS_PRESET_NAMES,
    PROTOCOL_PRESETS,
    chaos_schedule,
    resolve_fault_spec,
    tuned_protocol,
)
from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult
from repro.harness.runner import (
    RunningExperiment,
    assemble_replica,
    build_experiment,
    run_experiment,
)
from repro.harness.netbench import NetBenchConfig, NetBenchResult, run_netbench
from repro.harness.report import format_table, format_series

__all__ = [
    "PROTOCOL_PRESETS", "CHAOS_PRESET_NAMES", "chaos_schedule",
    "resolve_fault_spec", "tuned_protocol", "ExperimentConfig", "RunResult",
    "RunningExperiment", "assemble_replica", "build_experiment",
    "run_experiment", "NetBenchConfig", "NetBenchResult", "run_netbench",
    "format_table", "format_series",
]
