"""A census of the program's state, knobs and callables, over its
syntax trees.

Five rules keep ``src/repro`` from growing what nothing uses:

* every attribute the package stores is loaded somewhere in
  ``src/repro``, ``benchmarks`` or ``examples``; a count written per
  packet or per frame that only a test reads costs every run and shows
  nothing a run reports (the facts it would hold live in one place:
  ``LinkStats`` for drops, the packet tap for deliveries);
* every dataclass field is loaded in those trees too, or its class is
  defined in a module that hands dataclasses to ``asdict`` or
  ``fields`` (a serializer, such as ``FaultPlan.to_dict``, reads them
  all); a field only tests read is named in
  ``FIELDS_READ_BY_TESTS_ONLY``;
* every function, method or property is referenced outside its own
  ``def`` in those trees: a def only tests call is deleted (the tests
  read the fact it wrapped), moved into the tests, or named in
  ``REACHED_BY_TESTS_ONLY`` with the test and the paper figure, table,
  section or ROADMAP direction it serves;
* every defaulted parameter is passed by some call outside the tests,
  by keyword or by position, to a callee of its def's name (a class
  and its subclasses for ``__init__``); otherwise it is a constant
  beside its component, or it is named in ``PASSED_BY_TESTS_ONLY`` /
  ``FILLED_BY_DISPATCH``. A def on ``REACHED_BY_TESTS_ONLY`` has no
  caller outside the tests, so its parameters are the tests' to pass;
* every configuration field is passed the same way, by a construction
  of its class or a subclass or by a ``replace(obj, field=...)``. A
  configuration field is a defaulted init field that no production
  code writes after construction: every one of a frozen class (so all
  of ``EngineConfig``'s), and of any other dataclass those no store,
  item store or container mutation (``MUTATORS``) outside
  ``__post_init__`` reaches, through ``self`` in the class or its
  subclasses or through any other receiver; ``self.a = x.b`` and
  ``a = x.b`` make a write to ``a`` a write to ``b``.

Dunders and name-dispatched ``_handle_*`` / ``_check_*`` methods
count as reached. The settable values, defaulted parameters plus
configuration fields, may only fall (``SETTABLE_VALUES``), and every
name an ``__all__`` offers resolves.

Names are matched, not objects: ``x.count += 1`` stores ``count`` and
any ``y.count`` read anywhere loads it, so the first two rules catch a
name nothing reads at all, and a def is reached by any reference to
its name. A string constant counts as a load and as a reference (a
``getattr`` name, a dict key, a CLI table's lazy body); the names in a
``__slots__`` tuple, an ``__all__`` list or a lazy-export table do
not. A call ``f(**{"k": v})`` passes ``k``; ``f(**kw)`` inside a def
that takes ``**kw`` passes what that def's callers pass it;
``f(**x.attr)`` passes the keys of the dict displays production calls
pass as ``attr=`` (a scenario row's ``config``); ``cls(...)`` in a
method constructs its class; a CLI body is passed its command's flags
(``build_parser()``'s dests).

So a def escapes the third rule when anything else shares its name.
Three such defs only tests call are kept on purpose:
``ControlChannel.close`` (ROADMAP 3a will close a session's channel
when it tears down), ``InterarrivalJitterEstimator.observe`` (the RFC
3550 estimator the receiver's inline jitter is tested against) and
``HermesBrowser.back`` (6.2.3, beside the allowlisted ``forward``). No
rule keys defs by class as well: 77 method names are defined in two or
more classes, and a syntax tree does not tell a call's receiver type.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import pkgutil

from repro.__main__ import build_parser

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


#: dataclass fields only a test reads (``Class.field``): each names
#: that test and what of the paper or the ROADMAP it serves
FIELDS_READ_BY_TESTS_ONLY = {
    "UserAccount.form": "test_server_accounts_admission.py::"
                        "test_subscribe_then_authenticate (5: the account "
                        "keeps the personal data of the subscription form)",
    "Attachment.filename": "test_hermes.py::"
                           "test_mail_roundtrip_with_attachment (6.2: mail "
                           "carries named multimedia attachments)",
    "Annotation.presentation_time_s": "test_hermes_browser_cli.py::"
                                      "test_browser_annotations (5: a note "
                                      "is pinned to a moment of the "
                                      "presentation)",
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


def _name(node: ast.AST) -> str | None:
    """The name a ``Name`` or an ``Attribute`` ends in."""
    return getattr(node, "id", getattr(node, "attr", None))


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [_name(base) for base in cls.bases]


def _dataclasses(trees) -> dict[str, tuple[str, bool, list[str], list]]:
    """Dataclass name -> its module's path, whether it is frozen, its
    bases and its fields in order, ``(name, site, defaulted, init)``
    each (``ClassVar`` annotations are not fields)."""
    classes = {}
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = next((d for d in node.decorator_list if _name(
                d.func if isinstance(d, ast.Call) else d) == "dataclass"),
                None)
            if decorator is None:
                continue
            frozen = isinstance(decorator, ast.Call) and any(
                kw.arg == "frozen" and getattr(kw.value, "value", 0) is True
                for kw in decorator.keywords)
            fields = []
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    continue
                value, defaulted, init = stmt.value, True, True
                if value is None:
                    defaulted = False
                elif getattr(value, "func", None) is not None and getattr(
                        value.func, "id", None) == "field":
                    given = {kw.arg: kw.value for kw in value.keywords}
                    defaulted = bool({"default", "default_factory"} & set(given))
                    init = getattr(given.get("init"), "value", True)
                fields.append((stmt.target.id,
                               f"{os.path.relpath(path, REPO)}:{stmt.lineno}",
                               defaulted, init))
            classes[node.name] = (path, frozen, _base_names(node), fields)
    return classes


def _init_order(cls: str, classes) -> list[str]:
    """The names ``cls(...)`` takes by position: its dataclass bases'
    first, a redeclared field keeping its first place."""
    if cls not in classes:
        return []
    _path, _frozen, bases, fields = classes[cls]
    order = [name for base in bases for name in _init_order(base, classes)]
    return order + [name for name, _site, _defaulted, init in fields
                    if init and name not in order]


#: methods that change a container in place: ``x.a.append(v)`` writes ``a``
MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "remove", "discard", "clear"}


def _written_after_construction(trees) -> dict[str | None, set[str]]:
    """Attribute names the package stores, item-stores or mutates in
    place outside ``__post_init__``: under the enclosing class for a
    write through ``self``, under None for any other receiver. A handle
    ``self.a = x.b`` or ``a = x.b`` that is written writes ``b``."""
    written: dict[str | None, set[str]] = {}
    aliases: dict[str, str] = {}
    creations: set[int] = set()  # the targets of handle assignments
    handles: set[str] = set()  # names written other than by those

    def walk(node: ast.AST, cls: str | None, targets: set[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name, targets)
                continue
            if (isinstance(child, ast.FunctionDef)
                    and child.name == "__post_init__"):
                continue  # construction
            if (isinstance(child, ast.Assign) and len(child.targets) == 1
                    and isinstance(child.value, ast.Attribute)):
                target = child.targets[0]
                aliases[_name(target)] = child.value.attr
                creations.add(id(target))
            if isinstance(child, ast.Attribute) and (isinstance(
                    child.ctx, ast.Store) or id(child) in targets):
                owner = cls if getattr(child.value, "id", "") == "self" \
                    else None
                written.setdefault(owner, set()).add(child.attr)
                if id(child) not in creations:
                    handles.add(child.attr)
            elif isinstance(child, ast.Name) and id(child) in targets:
                handles.add(child.id)
            walk(child, cls, targets)

    for _path, tree in trees:
        walk(tree, None, {id(node.value) for node in ast.walk(tree)
                          if isinstance(node, ast.Subscript)
                          and isinstance(node.ctx, ast.Store)} | {
            id(node.func.value) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS})
    written.setdefault(None, set()).update(
        aliases[name] for name in handles if name in aliases)
    return written


def _serializing_modules(trees) -> set[str]:
    """Paths of the modules that hand a dataclass to ``asdict`` or
    ``fields``: each reads every field of the dataclasses it defines."""
    return {path for path, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _name(node.func) in ("asdict", "fields")}


def _unread_fields() -> dict[str, str]:
    trees = list(_trees(PACKAGE))
    loaded = _loaded_names()
    serializing = _serializing_modules(trees)
    return {f"{cls}.{name}": site
            for cls, (path, _frozen, _bases, fields)
            in _dataclasses(trees).items() if path not in serializing
            for name, site, _defaulted, _init in fields
            if name not in loaded and name not in READ_BY_TESTS_ONLY}


def test_every_dataclass_field_is_read_outside_the_tests():
    unread = _unread_fields()
    test_only = {key: site for key, site in unread.items()
                 if key not in FIELDS_READ_BY_TESTS_ONLY}
    assert not test_only, (
        "dataclass fields nothing in src/repro, benchmarks or examples "
        f"reads (delete them, or read the fact's one source): {test_only}")
    assert set(FIELDS_READ_BY_TESTS_ONLY) == set(unread), sorted(
        set(FIELDS_READ_BY_TESTS_ONLY) ^ set(unread))


#: defs no code outside the tests references: each names that test and
#: what of the paper or the ROADMAP it serves
REACHED_BY_TESTS_ONLY = {
    # paper reproductions no run needs
    "to_smil": "test_smil_renderer_snapshot.py::"
               "test_smil_export_figure2_structure (Figure 2's scenario "
               "as SMIL 1.0)",
    "inverse": "test_model_intervals.py::test_inverse_table_complete"
               " (Figure 2's timing as Allen relations)",
    "schedule_relations": "test_model_intervals.py::"
                          "test_figure2_schedule_relations (Figure 2's "
                          "playout schedule as Allen relations)",
    "separator": "test_hml_roundtrip.py::test_roundtrip_all_element_kinds"
                 " (Table 1's separator keyword, authored)",
    # the Hermes browser's facilities (section 5 and 6.2), which no
    # scripted session drives
    "view": "test_hermes_browser_cli.py::test_browser_view_and_history"
            " (6.2.3: view a lesson, record it in the history)",
    "forward": "test_service_interactive.py::test_history_back_forward"
               " (6.2.3: forward in the list of viewed lessons)",
    "annotate": "test_hermes_browser_cli.py::test_browser_annotations"
                " (5: the user annotates the selected document)",
    "for_document": "test_service_interactive.py::test_annotation_store"
                    " (5: a document's annotations)",
    "hits": "test_results_search_qos.py::"
            "test_search_client_orders_home_first (6.2.2: search hits, "
            "the connected server's first)",
    "disable_stream": "test_service_interactive.py::"
                      "test_disable_stream_end_to_end (5: the user "
                      "disables one medium)",
    "run_autoplay_sequence": "test_service_interactive.py::"
                             "test_autoplay_follows_timed_links (3: timed "
                             "links keep the writer's way)",
    # probes the ROADMAP's laws will read
    "allocated": "test_ports_discards.py::"
                 "test_every_media_and_rtcp_port_is_released_after_a_run"
                 " (ROADMAP 3a: nothing stays bound)",
    "bound_ports": "test_core_population.py::"
                   "test_population_port_isolation (ROADMAP 3a: nothing "
                   "stays bound)",
    "active_sessions": "test_service_protocol.py::"
                       "test_disconnect_bills_session (ROADMAP 1a: every "
                       "admission grant is released)",
    "packets_sent": "test_net_link_oracle.py::"
                    "test_every_packet_a_source_sent_is_somewhere_at_the_"
                    "horizon (ROADMAP 1a: packet conservation)",
    "mean_ci": "test_net_link_oracle.py::"
               "test_poisson_into_one_link_waits_as_pollaczek_khinchine_"
               "says (ROADMAP 2: statistical bench claims)",
}


def _is_export_table(node: ast.AST) -> bool:
    """``__all__ = [...]`` and ``_EXPORTS = {...}`` name what a module
    offers; neither is a use."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign)
               else [])
    return any(isinstance(t, ast.Name) and t.id in ("__all__", "_EXPORTS")
               for t in targets)


def _defs_and_references() -> tuple[dict[str, list[tuple[str, int]]],
                                    dict[str, list[set[int]]]]:
    """Def name -> ``(site, id)`` of each def in the package, and name ->
    for each reference in the production trees, the ids of the defs
    enclosing it."""
    defs: dict[str, list[tuple[str, int]]] = {}
    refs: dict[str, list[set[int]]] = {}

    def walk(node: ast.AST, enclosing: set[int], path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if _is_export_table(child):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.startswith(PACKAGE):
                    defs.setdefault(child.name, []).append(
                        (f"{os.path.relpath(path, REPO)}:{child.lineno}",
                         id(child)))
                walk(child, enclosing | {id(child)}, path)
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else child.value if isinstance(child, ast.Constant)
                    and isinstance(child.value, str) else None)
            if name is not None:
                refs.setdefault(name, []).append(enclosing)
            walk(child, enclosing, path)

    # every tree stays alive until the end, so no two nodes share an id
    trees = list(_trees(*PRODUCTION))
    for path, tree in trees:
        walk(tree, set(), path)
    return defs, refs


def _unreached_defs() -> dict[str, list[str]]:
    defs, refs = _defs_and_references()
    unreached = {}
    for name, sites in defs.items():
        if (name.startswith("__") and name.endswith("__")
                or name.startswith(("_handle_", "_check_"))):
            continue  # dunders and name-dispatched handlers
        own = {node_id for _site, node_id in sites}
        if not any(not (enclosing & own) for enclosing in refs.get(name, ())):
            unreached[name] = [site for site, _id in sites]
    return unreached


def test_every_def_is_reached_outside_the_tests():
    unreached = _unreached_defs()
    test_only = {name: sites for name, sites in unreached.items()
                 if name not in REACHED_BY_TESTS_ONLY}
    assert not test_only, (
        "defs nothing in src/repro, benchmarks or examples references "
        "(delete them and let the tests read the fact, or move them into "
        f"the tests): {test_only}")
    # an entry whose def is gone or gained a caller leaves the list
    assert set(REACHED_BY_TESTS_ONLY) == set(unreached), sorted(
        set(REACHED_BY_TESTS_ONLY) ^ set(unreached))


#: defaulted parameters only tests pass: each names that test and what
#: of the paper or the ROADMAP it serves
PASSED_BY_TESTS_ONLY = {
    "image(where=)": "test_hml_roundtrip.py::"
                     "test_roundtrip_all_element_kinds (Table 1's WHERE)",
    "audio(repeat=)": "test_hml_repeat.py::test_repeat_extends_playout_"
                      "schedule (Table 1's REPEAT)",
    "video(startime=)": "test_hml_roundtrip.py::"
                        "test_roundtrip_all_element_kinds (Table 1's "
                        "STARTIME)",
    "video(duration=)": "test_hml_roundtrip.py::"
                        "test_roundtrip_all_element_kinds (Table 1's "
                        "DURATION)",
    "video(note=)": "test_hml_roundtrip.py::"
                    "test_roundtrip_all_element_kinds (Table 1's NOTE)",
    # the sender builds every packet with tuple.__new__; tests build
    # packets through the validating constructor
    "RtpPacket(fragment_index=)": "test_rtp.py::test_rtp_packet_validation"
                                  " (RTP fragments a frame, Figure 5)",
    "RtpPacket(fragment_count=)": "test_rtp.py::test_rtp_packet_validation"
                                  " (as fragment_index)",
    "RtpPacket(frame=)": "test_rtp.py::test_rtp_packet_is_immutable"
                         " (the last fragment carries its frame)",
    "AdmissionController(on_regrant=)": "test_negotiation.py::"
                                        "test_shrinking_existing_sessions_"
                                        "admits_newcomer (ROADMAP 3b: a "
                                        "shrink re-grades the session)",
    "subscribe(min_bw_bps=)": "test_negotiation.py::"
                              "test_shrinking_existing_sessions_admits_"
                              "newcomer (ROADMAP 3b: a newcomer "
                              "subscribes with a negotiation floor)",
    "run_population(contract=)": "test_core_population.py::"
                                 "test_population_mixed_documents_and_"
                                 "contracts (ROADMAP 3c: per-contract "
                                 "floors in a population)",
    "run_population(interarrival_mean_s=)": "test_core_population.py::"
                                            "test_population_poisson_"
                                            "arrivals_reproducible "
                                            "(ROADMAP 3c and 3d: Poisson "
                                            "arrivals)",
    "run_sharded(tracer=)": "test_shard_supervisor.py::"
                            "test_a_tracer_records_the_shard_lifecycle "
                            "(ROADMAP 7b: a recorder for bench --shards)",
    # the user's QoS preferences (2, 4), which every account now takes
    # at their defaults
    "QoSPreferences(video_floor_grade=)": "test_service_interactive.py::"
                                          "test_a_users_qos_preferences_"
                                          "reach_the_streams_it_starts "
                                          "(ROADMAP 3c: per-user floors)",
    "QoSPreferences(audio_floor_grade=)": "test_server_database_flows.py::"
                                          "test_flow_respects_user_floor_"
                                          "grades (ROADMAP 3c: per-user "
                                          "floors)",
    "QoSPreferences(allow_suspend=)": "test_service_interactive.py::"
                                      "test_a_users_qos_preferences_reach_"
                                      "the_streams_it_starts (ROADMAP 3c: "
                                      "a user who refuses suspension)",
    # the fault matrix's slow control plane; the shipped rows only drop
    "ControlImpairFault(delay_s=)": "test_faults_plan.py::"
                                    "test_impaired_drop_and_delay "
                                    "(ROADMAP 4: delayed control messages)",
    "ControlImpairFault(jitter_s=)": "test_faults_plan.py::"
                                     "test_impaired_drop_and_delay "
                                     "(ROADMAP 4: jittered control "
                                     "messages)",
    # Figure 2's symbolic instants: the figure names each one
    **{f"Figure2Times({name}=)": "test_model_sync.py::"
       "test_figure2_schedule_matches_paper_timeline (Figure 2)"
       for name in ("t_i2", "d_i2", "t_a1", "d_v", "t_a2", "d_a2")},
    "Figure2Times(d_i1=)": "test_hml_roundtrip.py::"
                           "test_figure2_markup_helper (Figure 2)",
}

#: parameters a heap entry's args fill: each names the dispatcher
FILLED_BY_DISPATCH = {
    "_propagated(arrival=)": "Link.enqueue's Simulator.call_at entry "
                             "(pkt, arrival): arrival is set when planned",
    "_drop_queue(arrival=)": "Link.enqueue's Simulator.call_at entry "
                             "(pkt, arrival) for a planned queue drop",
}


def _defaulted_parameters() -> list[tuple[str, str, set[str], int | None]]:
    """``(site, label, callee names, param, position)`` per defaulted
    parameter of a def in the package. A def's label and callee name
    are its name; ``__init__`` and ``__new__`` are labelled by their
    class and called by it and its subclasses. The position is that of
    a call (``self`` bound), None for a keyword-only parameter. A
    dataclass's configuration fields follow, labelled by their class,
    called by it, its subclasses and ``replace``, at their place in the
    generated ``__init__``."""
    trees = list(_trees(PACKAGE))
    subclasses: dict[str, set[str]] = {}
    for _path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in _base_names(node):
                    subclasses.setdefault(base, set()).add(node.name)

    def family(cls: str) -> set[str]:
        out, todo = {cls}, [cls]
        while todo:
            for sub in subclasses.get(todo.pop(), ()):
                if sub not in out:
                    out.add(sub)
                    todo.append(sub)
        return out

    params = []
    for path, tree in trees:
        methods = {id(node): cls for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(node))
            constructor = (cls is not None
                           and node.name in ("__init__", "__new__"))
            label = cls.name if constructor else node.name
            callees = family(cls.name) if constructor else {node.name}
            bound = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list)
            args = node.args
            positional = args.posonlyargs + args.args
            site = f"{os.path.relpath(path, REPO)}:{node.lineno}"
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                params.append((site, label, callees,
                               positional[index].arg, index - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    params.append((site, label, callees, arg.arg, None))
    classes = _dataclasses(trees)
    written = _written_after_construction(trees)
    for cls, (_path, frozen, _bases, fields) in classes.items():
        order = _init_order(cls, classes)
        mutable = set().union(written.get(None, ()), *(
            written.get(c, ()) for c in family(cls))) if not frozen else ()
        for name, site, defaulted, init in fields:
            if defaulted and init and name not in mutable:
                params.append((site, cls, family(cls) | {"replace"},
                               name, order.index(name)))
    return params


def _cli_bodies() -> dict[str, set[str]]:
    """A command body's name -> its command's flag dests."""
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    bodies = {}
    for sub in action.choices.values():
        handler = sub.get_default("handler")
        name = inspect.getclosurevars(handler).nonlocals.get(
            "name", handler.__name__)
        bodies[name] = {a.dest for a in sub._actions}
    return bodies


def _passed_by_callers() -> tuple[dict[str, set[str]], dict[str, float]]:
    """Callee name -> the keywords some production call passes it, and
    the most positional arguments one passes (inf for ``*args``)."""
    keywords: dict[str, set[str]] = {n: set(d)
                                     for n, d in _cli_bodies().items()}
    positions: dict[str, float] = {}
    forwards: set[tuple[str, str]] = set()  # (def that takes **kw, callee)
    splats: set[tuple[str, str]] = set()  # (callee, attr) of f(**x.attr)
    displayed: dict[str, set[str]] = {}  # keyword -> its dict displays' keys

    def walk(node: ast.AST, enclosing, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, enclosing, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child, cls)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                # super().__init__(...) calls the class's bases, and
                # cls(...) in a classmethod the class
                supered = (callee == "__init__"
                           and isinstance(func.value, ast.Call)
                           and getattr(func.value.func, "id", "") == "super")
                if callee == "cls" and cls is not None:
                    callee = cls.name
                for callee in (_base_names(cls) if supered else [callee]):
                    _note_call(child, callee, enclosing)
            walk(child, enclosing, cls)

    def _note_call(call: ast.Call, callee: str | None, enclosing) -> None:
        for kw in call.keywords:
            if kw.arg is not None:
                keywords.setdefault(callee, set()).add(kw.arg)
                displayed.setdefault(kw.arg, set()).update(
                    key.value for node in ast.walk(kw.value)
                    if isinstance(node, ast.Dict) for key in node.keys
                    if isinstance(key, ast.Constant))
            elif isinstance(kw.value, ast.Dict):
                keywords.setdefault(callee, set()).update(
                    key.value for key in kw.value.keys
                    if isinstance(key, ast.Constant))
            elif isinstance(kw.value, ast.Attribute):
                splats.add((callee, kw.value.attr))
            elif (isinstance(kw.value, ast.Name) and enclosing is not None
                  and enclosing.args.kwarg is not None
                  and kw.value.id == enclosing.args.kwarg.arg):
                forwards.add((enclosing.name, callee))
        # replace(obj, k=v) passes fields by keyword only
        count = (float("inf") if any(isinstance(a, ast.Starred)
                                     for a in call.args)
                 else len(call.args) if callee != "replace" else 0)
        positions[callee] = max(positions.get(callee, 0), count)

    for _path, tree in _trees(*PRODUCTION):
        walk(tree, None, None)
    for callee, attr in splats:
        keywords.setdefault(callee, set()).update(displayed.get(attr, ()))
    changed = True
    while changed:
        changed = False
        for outer, callee in forwards:
            extra = keywords.get(outer, set()) - keywords.get(callee, set())
            if extra:
                keywords.setdefault(callee, set()).update(extra)
                changed = True
    return keywords, positions


def _unpassed_parameters() -> dict[str, list[str]]:
    keywords, positions = _passed_by_callers()
    unpassed: dict[str, list[str]] = {}
    for site, name, callees, param, position in _defaulted_parameters():
        if name in REACHED_BY_TESTS_ONLY:
            continue  # no caller outside the tests to pass anything
        if any(param in keywords.get(c, ()) or (
                position is not None and positions.get(c, 0) > position)
               for c in callees):
            continue
        unpassed.setdefault(f"{name}({param}=)", []).append(site)
    return unpassed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = _unpassed_parameters()
    named = {**PASSED_BY_TESTS_ONLY, **FILLED_BY_DISPATCH}
    single_valued = {key: sites for key, sites in unpassed.items()
                     if key not in named}
    assert not single_valued, (
        "defaulted parameters no call outside the tests passes (make each "
        f"a constant beside its component): {single_valued}")
    assert set(named) == set(unpassed), sorted(set(named) ^ set(unpassed))


#: defaulted parameters plus configuration fields; it may only fall
#: (parameters plus ``EngineConfig`` fields: 479 before the callables-
#: and-keywords round, 383 after it; parameters plus configuration
#: fields: 546 before the dataclass round, 520 after it, 519 once a
#: store to ``rx_discarded`` matched that field by name; 515 once
#: cross traffic lost its planned-entry path: ``Packet(hops=)``,
#: ``_plan(hand=, pkt=)`` and ``_take_back(later=)``)
SETTABLE_VALUES = 515


def test_settable_values_do_not_grow():
    count = len(_defaulted_parameters())
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values, more than {SETTABLE_VALUES}: a new "
        "knob needs a second production value, or it is a constant")


def test_the_constants_keep_what_their_fields_checked():
    """The checks ``GradingPolicy`` and ``RegionSpec`` ran on these when
    they were fields, and the access link's own: a congested report is
    never also clear, an upgrade waits for at least one clear report,
    and every link moves bits."""
    from repro.net import service_topology as topo
    from repro.server import qos_manager as qos

    assert qos.DEGRADE_LOSS > qos.UPGRADE_LOSS
    assert qos.DEGRADE_JITTER_S > qos.UPGRADE_JITTER_S
    assert qos.HYSTERESIS_REPORTS >= 1
    assert topo.REGION_LINK_RATE_BPS > 0 and topo.REGION_QUEUE_PACKETS >= 1
    assert topo.REGION_LINK_DELAY_S >= 0 and topo.ACCESS_DELAY_S >= 0


def test_every_exported_name_resolves():
    """A deletion leaves no stale ``__all__`` entry or lazy re-export."""
    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, missing


def test_every_allowlist_entry_names_a_test():
    """Each entry starts ``test_x.py::test_name``, and that test exists:
    a renamed or deleted test takes its exemptions with it."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    names = {os.path.basename(path): {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for path, tree in _trees(tests_dir)}
    stale = [key for table in (READ_BY_TESTS_ONLY, FIELDS_READ_BY_TESTS_ONLY,
                               REACHED_BY_TESTS_ONLY, PASSED_BY_TESTS_ONLY)
             for key, reason in table.items()
             if reason.split(" ")[0].partition("::")[2]
             not in names.get(reason.partition("::")[0], ())]
    assert not stale, stale
