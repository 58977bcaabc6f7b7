"""Observability: structured tracing, round accounting, probes, exporters."""

from repro._lazy import lazy_exports

__all__ = [
    "EVENT_SCHEMA",
    "ProbeSampler",
    "RoundProfile",
    "TraceData",
    "Tracer",
    "TraceSummary",
    "contended_round_profile",
    "default_sources",
    "expected_rounds",
    "round_table",
    "validate_events",
    "validate_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_probes_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.export": ("write_chrome_trace", "write_jsonl",
                         "write_probes_csv"),
    "repro.obs.probes": ("ProbeSampler", "default_sources"),
    "repro.obs.rounds": ("RoundProfile", "contended_round_profile",
                         "expected_rounds", "round_table"),
    "repro.obs.schema": ("EVENT_SCHEMA", "validate_events", "validate_trace"),
    "repro.obs.summary": ("TraceSummary",),
    "repro.obs.tracer": ("TraceData", "Tracer"),
})
