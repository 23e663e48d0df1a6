"""A census of the program's state, knobs and callables, read through
the linter's index of its syntax trees (``PyProgram``).

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
  read the fact it wrapped), moved into ``tests/helpers.py``, or named
  in ``REACHED_BY_TESTS_ONLY`` with the test and the paper figure,
  table, section or ROADMAP direction it serves;
* every defaulted parameter is passed by some call outside the tests,
  by keyword or by position; otherwise it is a constant beside its
  component, or it is named in ``PASSED_BY_TESTS_ONLY`` /
  ``FILLED_BY_DISPATCH``. A def on ``REACHED_BY_TESTS_ONLY`` has no
  caller outside the tests, so its parameters are the tests' to pass;
* every configuration field is passed the same way, by a construction
  of its class or a subclass or by a ``replace(obj, field=...)``. A
  configuration field is a defaulted init field that no production
  code writes after construction: every one of a frozen class (so all
  of ``EngineConfig``'s), and of any other dataclass that no store,
  item store or container mutation (``MUTATORS``) outside
  ``__post_init__`` reaches; ``self.a = x.b`` and ``a = x.b`` make a
  write to ``a`` a write to ``b`` (unless ``b`` is a property).

Dunders and name-dispatched ``_handle_*`` / ``_check_*`` methods
count as reached. The settable values, defaulted parameters plus
configuration fields, may only fall (``SETTABLE_VALUES``), and every
name an ``__all__`` offers resolves.

Every rule keys by class: ``Class.name`` for a method, attribute or
field, ``module.name`` for a function. A reference whose receiver
``PyProgram.type_of`` types (``self``, an annotation, ``x = C(...)``,
an attribute ``__init__`` assigns from a typed value, an annotated
return) reaches that class, its bases and its subclasses, and nothing
else: ``node.count += 1`` on a ``Node`` writes ``Node.count`` only, and
``a.run()`` on an ``a: A`` reaches ``A.run`` only. A call passes its
keywords the same way; ``C(...)``, ``cls(...)`` and
``super().__init__(...)`` pass them to a class's constructor and its
bases'. A receiver typed as a literal, a builtin or a library object
reaches nothing in the package.

What the syntax does not type matches names, as the census did before
it keyed by class: a load or store through an unknown receiver reads,
reaches or writes every member of its name, and such a call passes to
every def of its name. ``UNKNOWN_RECEIVERS`` counts those loads and
stores of a member name, and may only fall. A string constant reads
and reaches by name too, but only as a call argument or a displayed
item (a ``getattr`` name on an untyped object, a dict key, a CLI
table's lazy body): an enum value, a compared or assigned string
reaches nothing, and neither do the names in a ``__slots__`` tuple,
an ``__all__`` list or a lazy-export table. A call
``f(**{"k": v})`` passes ``k``; ``f(**kw)`` inside a def that takes
``**kw`` passes what that def's callers pass it; ``f(**x.attr)`` passes
the keys of the dict displays production calls pass as ``attr=`` (a
scenario row's ``config``); a CLI body is passed its command's flags
(``build_parser()``'s dests).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re

import pytest

from repro.__main__ import build_parser
from repro.analysis.callgraph import EXTERNAL, load_program
from repro.analysis.pyrules import _dotted

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "repro")
PRODUCTION = [PACKAGE, os.path.join(REPO, "benchmarks"),
              os.path.join(REPO, "examples")]

#: attributes only a test reads: each names that test and the
#: behaviour it checks
READ_BY_TESTS_ONLY = {
    "UserAccount.balance_due": "test_server_accounts_admission.py::"
                               "test_pricing_charges (a session's charge "
                               "adds to the account's balance)",
    "AtmLink.cells_tx": "test_net_atm.py::test_cell_tax_slows_serialization"
                        " (a frame travels as whole 53-byte cells)",
    "AtmLink.cell_loss_events": "test_link_reference.py::"
                                "test_atm_link_matches_the_two_entry_link"
                                " (cell loss as the reference ATM link "
                                "counts it)",
    **{f"MonitorStats.{name}": "test_frame_clocks.py::"
       "test_callback_playout_tells_the_generators_story (the monitor "
       "recommends drops on overflow and duplicates on starvation)"
       for name in ("drop_recommendations", "duplicate_recommendations")},
    **{f"MonitorStats.{name}": "test_client_buffers.py::"
       "test_monitor_counts_state_entries (one entry per crossing of a "
       "watermark)" for name in ("high_entries", "low_entries")},
    "ControlEndpoint.late_messages": "test_faults_plan.py::"
                                     "test_closed_endpoint_counts_late_"
                                     "messages (a closed endpoint drops "
                                     "what still arrives)",
    "AdmissionController.renegotiations": "test_negotiation.py::"
                                          "test_shrinking_existing_sessions_"
                                          "admits_newcomer (admission "
                                          "re-grants the sessions it shrank)",
    "ReliableSender.retransmissions": "test_net_channel.py::"
                                      "test_reliable_recovers_from_loss "
                                      "(go-back-N resends what the link "
                                      "lost)",
    "ClientSession.suspend_expired": "test_service_protocol.py::"
                                     "test_suspend_expiry_closes_connection "
                                     "(the server tells the client its "
                                     "grace ran out)",
    "StreamHandler.suspended_intervals": "test_server_media_streaming.py::"
                                         "test_suspension_halts_frames_but_"
                                         "media_time_advances (a suspended "
                                         "pump sends nothing)",
}

#: dataclass fields only a test reads: each names that test and what
#: of the paper or the ROADMAP it serves
FIELDS_READ_BY_TESTS_ONLY = {
    "UserAccount.form": "test_server_accounts_admission.py::"
                        "test_subscribe_then_authenticate (5: the account "
                        "keeps the personal data of the subscription form)",
    "Attachment.filename": "test_hermes.py::"
                           "test_mail_roundtrip_with_attachment (6.2: mail "
                           "carries named multimedia attachments)",
    **{f"Annotation.{name}": "test_hermes_browser_cli.py::"
       "test_browser_annotations (5: the user annotates the selected "
       "document with his own remarks, at a moment of the presentation)"
       for name in ("author", "created_at", "presentation_time_s")},
}

#: defs no code outside the tests references: each names that test and
#: what of the paper or the ROADMAP it serves
REACHED_BY_TESTS_ONLY = {
    # Figure 4's view / pause / resume / reload edges, which no scripted
    # run takes yet (ROADMAP 9)
    **{f"ClientSession.{rpc}": "test_service_protocol.py::"
       "test_pause_resume_protocol (Figure 4: pause and resume over the "
       "control protocol)" for rpc in ("pause", "resume")},
    "ClientSession.reload": "test_core_topologies.py::"
                            "test_full_stack_pause_resume_and_reload "
                            "(Figure 4: reload requests the document "
                            "again)",
    # paper reproductions no run needs
    "smil_export.to_smil": "test_smil_renderer_snapshot.py::"
                           "test_smil_export_figure2_structure (Figure 2's "
                           "scenario as SMIL 1.0)",
    "intervals.inverse": "test_model_intervals.py::"
                         "test_inverse_table_complete (Figure 2's timing "
                         "as Allen relations)",
    "intervals.schedule_relations": "test_model_intervals.py::"
                                    "test_figure2_schedule_relations "
                                    "(Figure 2's playout schedule as Allen "
                                    "relations)",
    "DocumentBuilder.separator": "test_hml_roundtrip.py::"
                                 "test_roundtrip_all_element_kinds (Table "
                                 "1's separator keyword, authored)",
    # the Hermes browser's facilities (section 5 and 6.2), which no
    # scripted session drives
    **{f"HermesBrowser.{name}": "test_hermes_browser_cli.py::"
       "test_browser_view_and_history (6.2.3: view a lesson, back and "
       "forward in the list of viewed lessons)"
       for name in ("view", "back", "forward")},
    "HermesBrowser.annotate": "test_hermes_browser_cli.py::"
                              "test_browser_annotations (5: the user "
                              "annotates the selected document)",
    "AnnotationStore.for_document": "test_service_interactive.py::"
                                    "test_annotation_store (5: a document's "
                                    "annotations)",
    "SearchClient.hits": "test_results_search_qos.py::"
                         "test_search_client_orders_home_first (6.2.2: "
                         "search hits, the connected server's first)",
    "ClientSession.search": "test_service_protocol.py::"
                            "test_search_over_protocol (6.2.2: a search "
                            "over the control protocol)",
    **{f"{cls}.disable_stream": "test_service_interactive.py::"
       "test_disable_stream_end_to_end (5: the user disables one medium)"
       for cls in ("ClientSession", "PresentationScheduler")},
    "SessionOrchestrator.run_autoplay_sequence": "test_service_interactive."
                                                 "py::test_autoplay_follows_"
                                                 "timed_links (3: timed links"
                                                 " keep the writer's way)",
    # probes the ROADMAP's laws will read
    "PortAllocator.allocated": "test_ports_discards.py::"
                               "test_every_media_and_rtcp_port_is_released_"
                               "after_a_run (ROADMAP 3a: nothing stays "
                               "bound)",
    "Node.bound_ports": "test_core_population.py::"
                        "test_population_port_isolation (ROADMAP 3a: "
                        "nothing stays bound)",
    "ControlChannel.close": "test_faults_plan.py::"
                            "test_channel_close_closes_both_endpoints "
                            "(ROADMAP 3a: a session's teardown closes its "
                            "channel)",
    "AdmissionController.active_sessions": "test_service_protocol.py::"
                                           "test_disconnect_bills_session "
                                           "(ROADMAP 1a: every admission "
                                           "grant is released)",
    "_TrafficBase.packets_sent": "test_net_link_oracle.py::"
                                 "test_every_packet_a_source_sent_is_"
                                 "somewhere_at_the_horizon (ROADMAP 1a: "
                                 "packet conservation)",
    "stats.mean_ci": "test_net_link_oracle.py::"
                     "test_poisson_into_one_link_waits_as_pollaczek_"
                     "khinchine_says (ROADMAP 2: statistical bench claims)",
    "InterarrivalJitterEstimator.observe": "test_rtp_reference.py::"
                                           "test_receiver_matches_the_per_"
                                           "packet_counters (the RFC 3550 "
                                           "estimator the receiver's inline "
                                           "jitter is held to)",
}

#: defaulted parameters only tests pass: each names that test and what
#: of the paper or the ROADMAP it serves
PASSED_BY_TESTS_ONLY = {
    "DocumentBuilder.image(where=)": "test_hml_roundtrip.py::"
                                     "test_roundtrip_all_element_kinds "
                                     "(Table 1's WHERE)",
    "DocumentBuilder.audio(repeat=)": "test_hml_repeat.py::"
                                      "test_repeat_extends_playout_schedule "
                                      "(Table 1's REPEAT)",
    **{f"DocumentBuilder.video({name}=)": "test_hml_roundtrip.py::"
       f"test_roundtrip_all_element_kinds (Table 1's {name.upper()})"
       for name in ("startime", "duration", "note")},
    # the sender builds every packet with tuple.__new__; tests build
    # packets through the validating constructor
    **{f"RtpPacket({name}=)": "test_rtp.py::test_rtp_packet_validation "
       "(RTP fragments a frame, Figure 5)"
       for name in ("fragment_index", "fragment_count", "frame")},
    "AdmissionController(on_regrant=)": "test_negotiation.py::"
                                        "test_shrinking_existing_sessions_"
                                        "admits_newcomer (ROADMAP 3b: a "
                                        "shrink re-grades the session)",
    # a viewer's bandwidth request and negotiation floor on the wire;
    # every scripted session asks for one ticket with no floor
    **{f"ClientSession.{rpc}({name}=)": "test_negotiation.py::"
       "test_negotiated_connect_over_protocol (ROADMAP 3b: a newcomer "
       "connects with a negotiation floor)"
       for rpc in ("connect", "subscribe")
       for name in ("required_bw_bps", "min_bw_bps")},
    "SessionOrchestrator.run_population(contract=)": "test_core_population.py"
                                                     "::test_population_"
                                                     "mixed_documents_and_"
                                                     "contracts (ROADMAP 3c: "
                                                     "per-contract floors)",
    "SessionOrchestrator.run_population(interarrival_mean_s=)":
        "test_core_population.py::test_population_poisson_arrivals_"
        "reproducible (ROADMAP 3c and 3d: Poisson arrivals)",
    "bench.run_sharded(tracer=)": "test_shard_supervisor.py::"
                                  "test_a_tracer_records_the_shard_lifecycle "
                                  "(ROADMAP 7b: a recorder for bench "
                                  "--shards)",
    "DocumentWeb.add_document(host=)": "test_model_links_scenario.py::"
                                       "test_cross_server_links_detected "
                                       "(3: a hyperlink to a document on "
                                       "another server)",
    # the user's QoS preferences (2, 4), which every account now takes
    # at their defaults
    **{f"QoSPreferences({name}=)": "test_service_interactive.py::"
       "test_a_users_qos_preferences_reach_the_streams_it_starts "
       "(ROADMAP 3c: per-user floors, and a user who refuses suspension)"
       for name in ("video_floor_grade", "audio_floor_grade",
                    "allow_suspend")},
    # the fault matrix's slow control plane; the shipped rows only drop
    **{f"ControlImpairFault({name}=)": "test_faults_plan.py::"
       "test_impaired_drop_and_delay (ROADMAP 4: delayed and jittered "
       "control messages)" for name in ("delay_s", "jitter_s")},
    # Figure 2's symbolic instants: the figure names each one
    **{f"Figure2Times({name}=)": "test_model_sync.py::"
       "test_figure2_schedule_matches_paper_timeline (Figure 2)"
       for name in ("t_i2", "d_i2", "t_a1", "d_v", "t_a2", "d_a2")},
    "Figure2Times(d_i1=)": "test_hml_roundtrip.py::"
                           "test_figure2_markup_helper (Figure 2)",
}

#: parameters a dispatcher fills: each names it
FILLED_BY_DISPATCH = {
    **{f"{cls}._propagated(arrival=)": "Link.enqueue's Simulator.call_at "
       "entry (pkt, arrival): arrival is set when planned"
       for cls in ("Link", "AtmLink")},
    "Link._drop_queue(arrival=)": "Link.enqueue's Simulator.call_at entry "
                                  "(pkt, arrival) for a planned queue drop",
    **{f"{cls}._tick(resumed=)": "Event._fire calls a callback with its "
       "event: the pause gate's, when a pause ends"
       for cls in ("PlayoutProcess", "StreamHandler")},
}

#: methods that change a container in place: ``x.a.append(v)`` writes ``a``
MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "remove", "discard", "clear"}

#: the receiver of a reference the syntax does not type: it matches
#: every member of its name
ANY = None


class Census:
    """What the rules read, from one walk of every module of a program;
    the stores, defs and fields counted are those under ``package``."""

    def __init__(self, program, package: str) -> None:
        self.program, self.package = program, package
        self.classes = [cls for found in program.classes.values()
                        for cls in found if self.packaged(cls.module)]
        self.defs = [info for found in program.functions.values()
                     for info in found if self.packaged(info.module)]
        #: name -> ``(receiver, path, line, loaded)`` per reference; the
        #: receiver is a class, ANY, or "def" for a bare name or a
        #: module's attribute (which reaches a function)
        self.uses: dict[str, list] = {}
        #: (receiver, name) -> the sites of the package's stores
        self.stores: dict[tuple, list[str]] = {}
        #: name -> receivers the package writes it through after
        #: construction; the same, less each handle's creating store
        self.writes: dict[str, set] = {}
        self.rewrites: dict[str, set] = {}
        #: handle -> the (receiver, name) it holds: ``self.a = x.b`` is
        #: (class, "a"), ``a = x.b`` is (scope, "a"); mutated locals
        self.handles: dict[tuple, tuple] = {}
        self.mutated: set[tuple] = set()
        #: callee name -> ``[kind, receiver, keywords, positions]`` per
        #: call; kind is class, member, def, replace or ANY
        self.calls: dict[str, list[list]] = {}
        self.forwards: list[tuple] = []
        self.splats: list[tuple] = []
        self.displayed: dict[str, set[str]] = {}
        self.serializing: set[str] = set()
        self.untyped: dict[str, int] = {}
        for mod in program.modules:
            self._walk(mod)
        for name, dests in _cli_bodies().items():
            self.calls.setdefault(name, []).append(["def", None, dests, 0])
        for call, attr in self.splats:
            call[2].update(self.displayed.get(attr, ()))
        members = ({info.name for info in self.defs if info.owner}
                   | {name for _cls, name in self.stores}
                   | {field[0] for _frozen, fields in
                      self.dataclasses().values() for field in fields})
        self.unknown_receivers = sum(count for name, count
                                     in self.untyped.items()
                                     if name in members)

    def packaged(self, mod) -> bool:
        return mod.path.startswith(self.package + os.sep)

    def key(self, info) -> str:
        """``Class.name`` for a method, ``module.name`` for a function."""
        return f"{info.owner.name}.{info.name}" if info.owner else (
            f"{os.path.basename(info.module.path)[:-3]}.{info.name}")

    def site(self, mod, node: ast.AST) -> str:
        return f"{os.path.relpath(mod.path, REPO)}:{node.lineno}"

    def scope(self, mod, node: ast.AST) -> ast.AST:
        info = self.program.enclosing(mod, node)
        return info.node if info is not None else mod.tree

    def _walk(self, mod) -> None:
        """One pass over a module: a parent comes before its children,
        so an assignment, item store or call marks its parts first."""
        program, packaged = self.program, self.packaged(mod)
        offered, item_stored, mutated, creations = set(), set(), set(), set()
        cited = set()   # call arguments and displayed items
        construction = {node for info in program.functions.get(
                        "__post_init__", ()) if info.module is mod
                        for node in ast.walk(info.node)}
        for node in ast.walk(mod.tree):
            use = (node.attr if isinstance(node, ast.Attribute)
                   else node.id if isinstance(node, ast.Name)
                   else node.value if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) else None)
            if isinstance(node, ast.Attribute):
                if program.module_of(node.value, mod) is not None:
                    self.uses.setdefault(use, []).append(
                        ("def", mod.path, node.lineno, False))
                    continue
                owner = program.type_of(node.value, mod)[0]
                if owner is EXTERNAL:
                    continue  # a library object's attribute
                if owner is ANY:
                    self.untyped[use] = self.untyped.get(use, 0) + 1
                written = (isinstance(node.ctx, ast.Store)
                           or node in item_stored)
                self.uses.setdefault(use, []).append(
                    (owner, mod.path, node.lineno, not written))
                if packaged and written:
                    self.stores.setdefault((owner, use), []).append(
                        self.site(mod, node))
                if packaged and node not in construction and (
                        written or node in mutated):
                    self.writes.setdefault(use, set()).add(owner)
                    if node not in creations:
                        self.rewrites.setdefault(use, set()).add(owner)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    self.uses.setdefault(use, []).append(
                        ("def", mod.path, node.lineno, False))
                if packaged and node not in construction and (
                        node in mutated or node in item_stored):
                    self.mutated.add((self.scope(mod, node), use))
            elif use is not None:
                if node in cited and node not in offered:
                    self.uses.setdefault(use, []).append(
                        (ANY, mod.path, node.lineno, True))
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                cited.update(node.elts)
            elif isinstance(node, ast.Dict):
                cited.update(filter(None, [*node.keys, *node.values]))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if any(getattr(t, "id", "") in (
                        "__all__", "_EXPORTS", "__slots__") for t in targets):
                    offered.update(ast.walk(node.value))
                if (packaged and isinstance(node, ast.Assign)
                        and len(targets) == 1
                        and isinstance(node.value, ast.Attribute)):
                    self._handle(targets[0], node.value, mod, creations)
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)):
                item_stored.add(node.value)
            elif isinstance(node, ast.Call):
                cited.update([*node.args, *(kw.value for kw in node.keywords)])
                name = getattr(node.func, "attr", getattr(
                    node.func, "id", None))
                if name in ("asdict", "fields"):
                    self.serializing.add(mod.path)
                if name in MUTATORS and isinstance(node.func, ast.Attribute):
                    mutated.add(node.func.value)
                if (name in ("getattr", "hasattr", "setattr")
                        and isinstance(node.func, ast.Name)
                        and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)):
                    owner = program.type_of(node.args[0], mod)[0]
                    if owner is not None:
                        offered.add(node.args[1])
                        self.uses.setdefault(node.args[1].value, []).append(
                            (owner, mod.path, node.lineno, True))
                self._call(node, name, mod)

    def _handle(self, target, value: ast.Attribute, mod,
                creations: set) -> None:
        """``self.a = x.b`` / ``a = x.b``: a second handle on ``b``'s
        object, unless ``b`` is a property's value."""
        source = (self.program.type_of(value.value, mod)[0], value.attr)
        if source[0] is not ANY and self.program.lookup(*source):
            return
        if isinstance(target, ast.Attribute):
            creations.add(target)
            self.handles[(self.program.type_of(target.value, mod)[0],
                          target.attr)] = source
        elif isinstance(target, ast.Name):
            self.handles[(self.scope(mod, target), target.id)] = source

    def _call(self, call: ast.Call, name: str | None, mod) -> None:
        program, func = self.program, call.func
        if not isinstance(func, (ast.Name, ast.Attribute)):
            return  # a call of a call's or an item's value
        module = (isinstance(func, ast.Attribute)
                  and program.module_of(func.value, mod) is not None)
        owner = (program.type_of(func.value, mod)[0]
                 if isinstance(func, ast.Attribute) and not module else None)
        cls = program.class_of(func, mod)
        if cls is not None:
            kind, owner, name = "class", cls, cls.name
        elif name == "replace" and call.args and (
                module or isinstance(func, ast.Name)):
            kind, owner = "replace", program.type_of(call.args[0], mod)[0]
        elif isinstance(func, ast.Name) or module:
            kind = "def"
        elif owner is EXTERNAL or owner is ANY and _dotted(getattr(
                func.value, "func", func.value)) == "super":
            return  # a library method, or a base outside the program
        else:
            kind = "member" if owner is not None else ANY
        record = [kind, owner, set(), float("inf") if any(
            isinstance(a, ast.Starred) for a in call.args)
            else len(call.args) if kind != "replace" else 0]
        enclosing = program.enclosing(mod, call)
        for kw in call.keywords:
            if kw.arg is not None:
                record[2].add(kw.arg)
                self.displayed.setdefault(kw.arg, set()).update(
                    key.value for node in ast.walk(kw.value)
                    if isinstance(node, ast.Dict) for key in node.keys
                    if isinstance(key, ast.Constant))
            elif isinstance(kw.value, ast.Dict):
                record[2].update(key.value for key in kw.value.keys
                                 if isinstance(key, ast.Constant))
            elif isinstance(kw.value, ast.Attribute):
                self.splats.append((record, kw.value.attr))
            elif (isinstance(kw.value, ast.Name) and enclosing is not None
                  and enclosing.node.args.kwarg is not None
                  and kw.value.id == enclosing.node.args.kwarg.arg):
                self.forwards.append((enclosing, record))
        self.calls.setdefault(name, []).append(record)

    # -- the rules' questions ---------------------------------------------
    def within(self, owners, cls) -> bool:
        """Whether a receiver among ``owners`` may be a ``cls`` (either
        ANY matches all)."""
        family = self.program.family(cls) if cls is not ANY else ()
        return any(o is ANY or cls is ANY or o in family for o in owners)

    def read(self, cls, name: str) -> bool:
        return self.within([o for o, _p, _l, loaded
                            in self.uses.get(name, ()) if loaded], cls)

    def written(self, cls, name: str) -> bool:
        """Whether production code writes ``cls.name`` after
        construction, itself or through a handle on it."""
        return self.within(self.writes.get(name, ()), cls) or any(
            attr == name and self.within([owner], cls) and (
                handle in self.mutated if isinstance(handle[0], ast.AST)
                else self.within(self.rewrites.get(handle[1], ()),
                                 handle[0]))
            for handle, (owner, attr) in self.handles.items())

    def reached(self, info) -> bool:
        """A def is reached by its name outside its own lines: through a
        receiver of its class (or an unknown one), or bare, for a
        function, or in its class's body, for a method that body hands
        on (``stats = property(_settle)``)."""
        node = info.node
        start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        family = self.program.family(info.owner) if info.owner else ()
        body = info.owner.node if info.owner else None
        return any(
            (path != info.module.path or not start <= line <= node.end_lineno)
            and (owner is ANY or owner in family
                 or owner == "def" and (
                     body is None or path == info.module.path
                     and body.lineno <= line <= body.end_lineno))
            for owner, path, line, _ in self.uses.get(info.name, ()))

    def passes(self, info, cls) -> list[list]:
        """The production calls that reach the def ``info``, or a
        dataclass ``cls``'s generated ``__init__``."""
        program = self.program
        if info is not None and info.name not in ("__init__", "__new__"):
            family = program.family(info.owner) if info.owner else ()
            return [call for call in self.calls.get(info.name, ())
                    if call[0] is ANY or call[0] == "member"
                    and call[1] in family
                    or call[0] == "def" and info.owner is None]
        cls = cls or info.owner
        found = [call for sub in (cls, *program._subclasses.get(cls, ()))
                 for call in self.calls.get(sub.name, ())
                 if call[0] == "class" and call[1] is sub]
        found += [call for call in self.calls.get("__init__", ())
                  if call[0] is ANY or call[0] == "member"
                  and cls in program.mro(call[1])]
        return found + [call for call in self.calls.get("replace", ())
                        if info is None and call[0] == "replace"
                        and self.within([call[1]], cls)]

    # -- the rules' answers -----------------------------------------------
    def unread_attributes(self) -> dict[str, list[str]]:
        return {f"{cls.name if cls else '?'}.{name}": sites
                for (cls, name), sites in self.stores.items()
                if not self.read(cls, name) and not (
                    (cls, name) in self.handles
                    and self.read(*self.handles[(cls, name)]))}

    def dataclasses(self) -> dict:
        """Dataclass -> whether it is frozen, and its fields in order,
        ``(name, site, defaulted, init)`` each (``ClassVar`` annotations
        are not fields)."""
        found = {}
        for cls in self.classes:
            decorator = next((d for d in cls.node.decorator_list if _dotted(
                getattr(d, "func", d)).endswith("dataclass")), None)
            if decorator is None:
                continue
            fields = []
            for stmt in cls.node.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    continue
                given = ({kw.arg: kw.value for kw in stmt.value.keywords}
                         if _dotted(getattr(stmt.value, "func", None)
                                    or stmt) == "field" else None)
                fields.append((
                    stmt.target.id, self.site(cls.module, stmt),
                    stmt.value is not None and (given is None or bool(
                        {"default", "default_factory"} & set(given))),
                    getattr((given or {}).get("init"), "value", True)))
            found[cls] = (any(kw.arg == "frozen" and getattr(
                kw.value, "value", 0) is True
                for kw in getattr(decorator, "keywords", ())), fields)
        return found

    def unread_fields(self) -> dict[str, str]:
        return {f"{cls.name}.{name}": site
                for cls, (_frozen, fields) in self.dataclasses().items()
                if cls.module.path not in self.serializing
                for name, site, _defaulted, _init in fields
                if not self.read(cls, name)
                and f"{cls.name}.{name}" not in READ_BY_TESTS_ONLY}

    def unreached_defs(self) -> dict[str, str]:
        return {self.key(info): self.site(info.module, info.node)
                for info in self.defs
                if not (info.name.startswith("__") and info.name.endswith("__")
                        or info.name.startswith(("_handle_", "_check_")))
                and not self.reached(info)}

    def settable(self) -> list[tuple]:
        """``(site, label, def, class, param, position)`` per defaulted
        parameter of a def in the package, labelled ``Class.name`` (a
        constructor by its class); the position is that of a call
        (``self`` bound), None for a keyword-only parameter. Then each
        dataclass's configuration fields, labelled by their class, at
        their place in the generated ``__init__``."""
        params = []
        for info in self.defs:
            args = info.node.args
            label = (info.owner.name if info.name in ("__init__", "__new__")
                     and info.owner else self.key(info))
            bound = info.owner is not None and not any(
                _dotted(d) == "staticmethod" for d in info.node.decorator_list)
            positional = args.posonlyargs + args.args
            site = self.site(info.module, info.node)
            params += [(site, label, info, None, positional[index].arg,
                        index - bound) for index in range(
                len(positional) - len(args.defaults), len(positional))]
            params += [(site, label, info, None, arg.arg, None)
                       for arg, default in zip(args.kwonlyargs,
                                               args.kw_defaults)
                       if default is not None]
        classes = self.dataclasses()
        for cls, (frozen, fields) in classes.items():
            order = []
            for base in reversed(self.program.mro(cls)):
                order += [field[0] for field in classes.get(base, (0, []))[1]
                          if field[3] and field[0] not in order]
            params += [(site, cls.name, None, cls, name, order.index(name))
                       for name, site, defaulted, init in fields
                       if defaulted and init
                       and (frozen or not self.written(cls, name))]
        return params

    def unpassed_parameters(self) -> dict[str, list[str]]:
        changed = True
        while changed:  # f(**kw) passes what the callers of its def pass
            changed = False
            for outer, record in self.forwards:
                extra = set().union(*(call[2] for call in self.passes(
                    outer, None))) - record[2]
                changed = changed or bool(extra)
                record[2].update(extra)
        unpassed: dict[str, list[str]] = {}
        for site, label, info, cls, param, position in self.settable():
            if info is not None and self.key(info) in REACHED_BY_TESTS_ONLY:
                continue  # no caller outside the tests to pass anything
            if not any(param in call[2] or position is not None
                       and call[3] > position
                       for call in self.passes(info, cls)):
                unpassed.setdefault(f"{label}({param}=)", []).append(site)
        return unpassed


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


@pytest.fixture(scope="module")
def census() -> Census:
    """The production trees, parsed once for every rule."""
    program, problems = load_program(PRODUCTION)
    assert problems == []
    return Census(program, PACKAGE)


def _only_tests(found: dict, allowed: dict) -> None:
    """Nothing beyond the allowlist is found, and every entry is found
    (one that is gone or gained a production use leaves the list)."""
    assert not set(found) - set(allowed), {
        key: found[key] for key in set(found) - set(allowed)}
    assert set(allowed) == set(found), sorted(set(allowed) ^ set(found))


def test_every_stored_attribute_is_read_outside_the_tests(census):
    """Stored but never read in src/repro, benchmarks or examples:
    delete it, or read the fact's one source."""
    _only_tests(census.unread_attributes(), READ_BY_TESTS_ONLY)


def test_every_dataclass_field_is_read_outside_the_tests(census):
    _only_tests(census.unread_fields(), FIELDS_READ_BY_TESTS_ONLY)


def test_every_def_is_reached_outside_the_tests(census):
    """A def nothing outside the tests references: delete it and let the
    tests read the fact, or move it into the tests."""
    _only_tests(census.unreached_defs(), REACHED_BY_TESTS_ONLY)


def test_every_defaulted_parameter_is_passed_outside_the_tests(census):
    """A keyword no production call passes is a constant beside its
    component."""
    _only_tests(census.unpassed_parameters(),
                {**PASSED_BY_TESTS_ONLY, **FILLED_BY_DISPATCH})


#: defaulted parameters plus configuration fields; it may only fall
#: (keyed by name: 479 before the callables-and-keywords round, 383
#: after it; with configuration fields, 546 before the dataclass round
#: and 514 once cross traffic lost its planned-entry path. Keyed by
#: class the same tree counts 529: 15 fields a same-named store on
#: another class had hidden, ``SessionResult.log`` and
#: ``Histogram.bounds`` among them; then 530 once ``Link._feeder`` was
#: typed, which took ``node.rx_discarded +=`` off
#: ``SessionResult.rx_discarded``, and 525 once ``RuleRegistry.run``,
#: ``FlightRecorder.dump`` / ``window`` and
#: ``MultimediaDatabase.add_document`` lost five)
SETTABLE_VALUES = 525

#: loads and stores of a member name through a receiver the syntax does
#: not type (1,060 when the census first keyed by class; 1,046 before
#: one take-back served a set of links and ``Packet.hops`` went; 1,043
#: before the orchestrator's and the fault injector's ``engine`` were
#: annotated and the injector iterated ``plan.faults``); it may only
#: fall
UNKNOWN_RECEIVERS = 966


def test_settable_values_do_not_grow(census):
    """A new knob needs a second production value, or it is a constant."""
    assert len(census.settable()) <= SETTABLE_VALUES


def test_unknown_receivers_do_not_grow(census):
    """A new reference through an untyped receiver needs an annotation
    on the parameter or attribute it goes through."""
    assert census.unknown_receivers <= UNKNOWN_RECEIVERS


def _program(tmp_path, source: str) -> Census:
    (tmp_path / "mod.py").write_text(source)
    program, _problems = load_program([str(tmp_path)])
    return Census(program, str(tmp_path))


def test_a_method_is_reached_only_through_its_own_class(tmp_path):
    """``a.run()`` on an ``a: A`` reaches ``A.run``, not ``B.run``;
    keyed by name, the census counted both as reached."""
    census = _program(tmp_path, (
        "class A:\n    def run(self):\n        return 1\n"
        "class B:\n    def run(self):\n        return 2\n"
        "def main(a: A):\n    return a.run()\n"
        "main(A())\n"))
    assert set(census.unreached_defs()) == {"B.run"}


def test_a_store_on_another_class_leaves_a_field_configuration(tmp_path):
    """``node.rx += 1`` on a ``Node`` writes ``Node.rx``, not the
    configuration field ``Result.rx``; keyed by name, it did."""
    census = _program(tmp_path, (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Result:\n    rx: int = 0\n"
        "class Node:\n    def __init__(self):\n        self.rx = 0\n"
        "def count(node: Node):\n    node.rx += 1\n"
        "def main(node: Node):\n    count(node)\n"
        "    return Result(rx=node.rx).rx\n"
        "main(Node())\n"))
    assert [(label, param) for _s, label, _i, _c, param, _p
            in census.settable()] == [("Result", "rx")]


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
    stale = []
    for table in (READ_BY_TESTS_ONLY, FIELDS_READ_BY_TESTS_ONLY,
                  REACHED_BY_TESTS_ONLY, PASSED_BY_TESTS_ONLY):
        for key, reason in table.items():
            path, _, test = reason.split(" ")[0].partition("::")
            with open(os.path.join(REPO, "tests", path),
                      encoding="utf-8") as fh:
                if not re.search(rf"^def {test}\(", fh.read(), re.M):
                    stale.append(key)
    assert not stale, stale
