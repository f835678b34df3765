"""Discrete-event simulator for torrent-style dissemination over a named-data wireless ad hoc network."""

__version__ = "0.1.0"

from .names import (  # noqa: F401
    Bitmap,
    Data,
    Interest,
    Name,
    classify,
    decode_bitmap,
    encode_bitmap,
    parse_name,
    render_name,
)
from .scenario import (  # noqa: F401
    ScenarioConfig,
    build_five_node,
    build_random_field,
    load_scenario,
)
from .world import run_scenario  # noqa: F401
from .oracle import reachability_oracle  # noqa: F401
from .trace import MetricsSummary, metrics_from_trace  # noqa: F401
