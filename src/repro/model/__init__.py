"""Document model: the paper's four logical abstractions.

§3 divides the hypermedia model into *content*, *layout*,
*synchronization* and *interconnection*. This package maps each to a
module:

* :mod:`repro.model.content` — media locators and the content index;
* :mod:`repro.model.layout` — display regions for the desktop;
* :mod:`repro.model.sync` — the playout schedule (the E_i structures
  the client's presentation scheduler builds) and what it charges;
* :mod:`repro.model.links` — the hyperlink web across documents;
* :mod:`repro.model.scenario` — the combined presentation scenario.
"""

from repro.model.content import ContentIndex, MediaLocator
from repro.model.layout import DisplayLayout, LayoutEngine, Region
from repro.model.sync import (
    BandwidthVerdict,
    PlayoutEntry,
    ascii_timeline,
    build_playout_schedule,
    check_bandwidth,
    scenario_duration,
)
from repro.model.links import DocumentWeb
from repro.model.scenario import PresentationScenario, StreamSpec

__all__ = [
    "BandwidthVerdict",
    "ContentIndex",
    "DisplayLayout",
    "DocumentWeb",
    "LayoutEngine",
    "MediaLocator",
    "PlayoutEntry",
    "PresentationScenario",
    "Region",
    "StreamSpec",
    "ascii_timeline",
    "build_playout_schedule",
    "check_bandwidth",
    "scenario_duration",
]
