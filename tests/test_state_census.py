"""A census of the program's state and knobs, over its syntax trees.

Two rules keep ``src/repro`` from growing what nothing uses:

* every attribute the package stores is loaded somewhere in
  ``src/repro``, ``benchmarks`` or ``examples``; a count written per
  packet or per frame that only a test reads costs every run and shows
  nothing a run reports (the facts it would hold live in one place:
  ``LinkStats`` for drops, the packet tap for deliveries);
* every ``EngineConfig`` field is set by a caller outside the tests; a
  value no caller changes is a constant beside its component, which a
  test monkeypatches.

Names are matched, not objects: ``x.count += 1`` stores ``count`` and
any ``y.count`` read anywhere loads it, so the first rule catches a
name nothing reads at all. A string constant counts as a load (a
``getattr`` name, a dict key); the names in a ``__slots__`` tuple do
not.
"""

from __future__ import annotations

import ast
import dataclasses
import os

from repro.core.config import EngineConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "repro")
PRODUCTION = (PACKAGE, os.path.join(REPO, "benchmarks"),
              os.path.join(REPO, "examples"))

#: attributes only a test reads: each names that test and the
#: behaviour it checks
READ_BY_TESTS_ONLY = {
    "balance_due": "test_server_accounts_admission.py::test_pricing_charges"
                   " (a session's charge adds to the account's balance)",
    "cells_tx": "test_net_atm.py::test_cell_tax_slows_serialization"
                " (a frame travels as whole 53-byte cells)",
    "cell_loss_events": "test_link_reference.py::"
                        "test_atm_link_matches_the_two_entry_link"
                        " (cell loss as the reference ATM link counts it)",
    "drop_recommendations": "test_frame_clocks.py::"
                            "test_callback_playout_tells_the_generators_story"
                            " (the overflowing monitor recommends drops)",
    "duplicate_recommendations": "test_frame_clocks.py::"
                                 "test_callback_playout_tells_the_generators"
                                 "_story (the starving monitor recommends"
                                 " duplicates)",
    "high_entries": "test_client_buffers.py::"
                    "test_monitor_counts_state_entries"
                    " (one entry per crossing of the high watermark)",
    "low_entries": "test_client_buffers.py::"
                   "test_monitor_counts_state_entries"
                   " (one entry per crossing of the low watermark)",
    "late_messages": "test_faults_plan.py::"
                     "test_closed_endpoint_counts_late_messages"
                     " (a closed endpoint drops what still arrives)",
    "range_name": "test_ports_discards.py::"
                  "test_exhaustion_error_names_node_range_and_bounds"
                  " (the error says which port range ran out)",
    "renegotiations": "test_negotiation.py::"
                      "test_shrinking_existing_sessions_admits_newcomer"
                      " (admission re-grants the sessions it shrank)",
    "retransmissions": "test_net_channel.py::test_reliable_recovers_from_loss"
                       " (go-back-N resends what the link lost)",
    "suspend_expired": "test_service_protocol.py::"
                       "test_suspend_expiry_closes_connection"
                       " (the server tells the client its grace ran out)",
    "suspended_intervals": "test_server_media_streaming.py::"
                           "test_suspension_halts_frames_but_media_time"
                           "_advances (a suspended pump sends nothing)",
}


def _trees(*roots: str):
    for root in roots:
        for dirpath, _dirs, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _slot_names(tree: ast.AST) -> set[int]:
    """ids of the string constants inside ``__slots__ = ...``."""
    return {id(const)
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets)
            for const in ast.walk(node.value)}


def _item_stores(tree: ast.AST) -> set[int]:
    """ids of the attributes an item store writes into, ``x.a[k] = v``
    or ``x.a[k] += v``: they are loaded only to be written."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute)}


def _loaded_names() -> set[str]:
    loaded: set[str] = set()
    for _path, tree in _trees(*PRODUCTION):
        slots = _slot_names(tree)
        written = _item_stores(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load) and id(node) not in written:
                loaded.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in slots):
                loaded.add(node.value)
    return loaded


def _stored_attributes() -> tuple[dict[str, list[str]], dict[str, str]]:
    """Attribute name -> ``path:line`` of each store in the package, and
    the aliases among them: ``self.a = x.b`` makes ``a`` a second handle
    on ``b``'s object (a hot path's cached lookup), read where ``b`` is."""
    stored: dict[str, list[str]] = {}
    aliases: dict[str, str] = {}
    for path, tree in _trees(PACKAGE):
        written = _item_stores(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (isinstance(
                    node.ctx, ast.Store) or id(node) in written):
                stored.setdefault(node.attr, []).append(
                    f"{os.path.relpath(path, REPO)}:{node.lineno}")
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Attribute)
                  and isinstance(node.value, ast.Attribute)):
                aliases[node.targets[0].attr] = node.value.attr
    return stored, aliases


def test_every_stored_attribute_is_read_outside_the_tests():
    stored, aliases = _stored_attributes()
    loaded = _loaded_names()
    unread = {name: sites for name, sites in stored.items()
              if name not in loaded and aliases.get(name) not in loaded}
    write_only = {name: sites for name, sites in unread.items()
                  if name not in READ_BY_TESTS_ONLY}
    assert not write_only, (
        "stored but never read in src/repro, benchmarks or examples "
        f"(delete them, or read the fact's one source): {write_only}")
    # an entry whose attribute is gone or gained a reader leaves the list
    assert set(READ_BY_TESTS_ONLY) == set(unread), sorted(
        set(READ_BY_TESTS_ONLY) ^ set(unread))


def _names_set_by_callers() -> set[str]:
    """Keywords of ``EngineConfig(...)`` / ``replace(...)`` /
    ``dict(...)`` calls and keys of dict displays (a scenario row's
    ``config``), outside the tests."""
    names: set[str] = set()
    for _path, tree in _trees(*PRODUCTION):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if callee in ("EngineConfig", "replace", "dict"):
                    names.update(kw.arg for kw in node.keywords if kw.arg)
            elif isinstance(node, ast.Dict):
                names.update(key.value for key in node.keys
                             if isinstance(key, ast.Constant))
    return names


def test_every_engine_config_field_has_a_caller_that_sets_it():
    set_by_callers = _names_set_by_callers()
    only_defaulted = [f.name for f in dataclasses.fields(EngineConfig)
                      if f.name not in set_by_callers]
    assert not only_defaulted, (
        "EngineConfig fields no caller outside the tests sets (make each "
        f"a constant beside its component): {only_defaulted}")
