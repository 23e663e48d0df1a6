"""The shipped-scenario corpus the ``--scenarios`` lint pass covers.

Two sources:

* **built-in** scenarios authored inside :mod:`repro` — the paper's
  Figure 2 worked example, the experiments' standard A/V workload and
  a Hermes distance-education course (a *closed*, cross-linked
  multi-document set);
* **example** scenarios from ``examples/*.py``: each example module
  exposes a ``scenario_documents() -> dict[name, markup]`` function
  (plus optional ``SCENARIO_CLOSED`` / ``SCENARIO_CAPACITY_MBPS``
  module attributes) that this module loads without executing the
  example's ``main()``.

Every set carries a declared access capacity so the static
bandwidth-feasibility pass runs over the whole corpus; the CI gate
asserts all of it lints error-free.
"""

from __future__ import annotations

import importlib.util
import os

from repro.analysis.scenario_rules import ScenarioSet
from repro.hml.ast import HmlDocument
from repro.hml.parser import parse

__all__ = [
    "builtin_scenario_sets",
    "example_scenario_sets",
    "shipped_scenario_sets",
]

#: default declared access capacity for shipped scenarios (a paper-era
#: broadband access link comfortably above the heaviest shipped peak)
DEFAULT_CAPACITY_BPS = 10e6


def _as_document(value: "HmlDocument | str") -> HmlDocument:
    return value if isinstance(value, HmlDocument) else parse(value)


def builtin_scenario_sets() -> dict[str, ScenarioSet]:
    """Scenario sets authored inside the package."""
    from repro.core.experiments import av_markup
    from repro.hermes.lessons import make_course
    from repro.hml.examples import figure2_document

    sets: dict[str, ScenarioSet] = {}
    sets["figure2"] = ScenarioSet(
        name="figure2",
        documents={"figure2": figure2_document()},
        closed=False,  # its link leaves the worked example
        capacity_bps=DEFAULT_CAPACITY_BPS,
    )
    sets["experiment-av"] = ScenarioSet(
        name="experiment-av",
        documents={"experiment-av": parse(av_markup(10.0, True))},
        closed=True,
        capacity_bps=DEFAULT_CAPACITY_BPS,
    )
    # The CDN bench's hot document: one continuous A/V pair fanned out
    # to every region by shared-flow batching (no image sidecars).
    sets["cdn-hot"] = ScenarioSet(
        name="cdn-hot",
        documents={"cdn-hot": parse(av_markup(6.0, False))},
        closed=True,
        capacity_bps=DEFAULT_CAPACITY_BPS,
    )
    lessons = make_course("routing", "networking", n_lessons=3,
                          segment_s=5.0, tutor="dr-net")
    sets["hermes-routing"] = ScenarioSet(
        name="hermes-routing",
        documents={lesson.name: lesson.document for lesson in lessons},
        closed=True,  # a course is a complete authored universe
        capacity_bps=DEFAULT_CAPACITY_BPS,
    )
    return sets


def example_scenario_sets() -> dict[str, ScenarioSet]:
    """Load ``scenario_documents()`` from every example module.

    ``examples/`` is looked up in the working directory, then next to
    the source tree; without one the set is empty. Modules without the
    hook (pure-workflow examples) are skipped; a module that fails to
    import is surfaced as a broken corpus entry by raising — shipped
    examples must stay importable.
    """
    candidates = [
        os.path.join(os.getcwd(), "examples"),
        os.path.normpath(os.path.join(
            os.path.dirname(__file__), "..", "..", "..", "examples")),
    ]
    directory = next((c for c in candidates if os.path.isdir(c)), None)
    if directory is None:
        return {}
    sets: dict[str, ScenarioSet] = {}
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".py") or fname.startswith("_"):
            continue
        mod_name = f"_repro_example_{fname[:-3]}"
        spec = importlib.util.spec_from_file_location(
            mod_name, os.path.join(directory, fname))
        if spec is None or spec.loader is None:
            continue
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        hook = getattr(module, "scenario_documents", None)
        if hook is None:
            continue
        documents = {
            name: _as_document(value)
            for name, value in hook().items()
        }
        capacity_mbps = getattr(module, "SCENARIO_CAPACITY_MBPS", None)
        sets[fname[:-3]] = ScenarioSet(
            name=fname[:-3],
            documents=documents,
            closed=bool(getattr(module, "SCENARIO_CLOSED", False)),
            capacity_bps=(capacity_mbps * 1e6 if capacity_mbps is not None
                          else DEFAULT_CAPACITY_BPS),
        )
    return sets


def shipped_scenario_sets() -> dict[str, ScenarioSet]:
    """The full corpus: built-ins plus example-module scenarios."""
    sets = builtin_scenario_sets()
    sets.update(example_scenario_sets())
    return sets
