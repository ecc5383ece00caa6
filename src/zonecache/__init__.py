"""Deterministic simulator for cache layouts on zoned flash devices."""

from . import errors
from .zns import DeviceConfig, ZnsDevice, ZoneState
from .ftl import PageMappedFtl
from .zstorage import (DropVerb, OpPlan, ZoneStore, compute_min_op,
                       watermark_zones)
from .zcache import Policy, RegionCache
from .schemes import SCHEME_NAMES, SchemeSpec, build, wa_factor
from .workload import (CacheOp, OpKind, WorkloadSpec, generate, preset_spec,
                       replay, value_bytes, write_trace)
from .harness import (ExperimentConfig, MetricsReport, parse_config_file,
                      parse_config_text, render_csv, run)

__all__ = [
    "errors",
    "DeviceConfig", "ZnsDevice", "ZoneState",
    "PageMappedFtl",
    "DropVerb", "OpPlan", "ZoneStore", "compute_min_op",
    "watermark_zones",
    "Policy", "RegionCache",
    "SCHEME_NAMES", "SchemeSpec", "build", "wa_factor",
    "CacheOp", "OpKind", "WorkloadSpec", "generate", "preset_spec",
    "replay", "value_bytes", "write_trace",
    "ExperimentConfig", "MetricsReport", "parse_config_file",
    "parse_config_text", "render_csv", "run",
]

__version__ = "0.1.0"
