"""Trace infrastructure: FIU format, workload profiles, synthetic generation."""

from .fiu import (
    FIUFormatError,
    RawFIURecord,
    format_fiu_line,
    iter_fiu_requests,
    parse_fiu_line,
    read_fiu,
    write_fiu,
)
from .jsonl import (
    JSONLFormatError,
    iter_jsonl_requests,
    record_of_request,
    request_of_record,
    write_jsonl,
)
from .profiles import (
    PROFILES,
    TraceAudit,
    WorkloadProfile,
    audit_trace,
    profile_by_name,
)
from .synthetic import generate_trace
from .transforms import (
    filter_ops,
    interleave_tenants,
    merge_traces,
    scale_time,
    shift_lpns,
    take,
    window,
)
from .zipf import ZipfSampler, top_fraction_share, zipf_rank, zipf_rank_legacy

__all__ = [
    "WorkloadProfile",
    "PROFILES",
    "profile_by_name",
    "TraceAudit",
    "audit_trace",
    "generate_trace",
    "ZipfSampler",
    "zipf_rank",
    "zipf_rank_legacy",
    "top_fraction_share",
    "RawFIURecord",
    "FIUFormatError",
    "parse_fiu_line",
    "read_fiu",
    "iter_fiu_requests",
    "format_fiu_line",
    "write_fiu",
    "scale_time",
    "window",
    "take",
    "filter_ops",
    "shift_lpns",
    "merge_traces",
    "interleave_tenants",
    "JSONLFormatError",
    "write_jsonl",
    "iter_jsonl_requests",
    "record_of_request",
    "request_of_record",
]
