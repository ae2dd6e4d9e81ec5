"""Code mobility: sandbox, packing, migration, itineraries."""

from .itinerary import AgentTour, AutonomousTour, Itinerary, make_collector_agent
from .package import (
    FORMAT,
    pack,
    pack_bytes,
    portability_report,
    unpack,
    unpack_bytes,
)
from .sandbox import ALLOWED_BUILTINS, build_function, compile_restricted, validate_source
from .transfer import InstallReport, MobilityManager

__all__ = [
    "pack",
    "pack_bytes",
    "unpack",
    "unpack_bytes",
    "portability_report",
    "FORMAT",
    "MobilityManager",
    "InstallReport",
    "Itinerary",
    "AgentTour",
    "AutonomousTour",
    "make_collector_agent",
    "validate_source",
    "compile_restricted",
    "build_function",
    "ALLOWED_BUILTINS",
]
