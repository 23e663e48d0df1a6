"""Uniform CLI reporting: text tables by default, ``--json`` on demand.

Every ``python -m repro`` path reports through a :class:`Reporter`
instead of bare prints, so any run/figure/demo/trace invocation can
emit one machine-readable JSON document (``--json``) without touching
the code that produces the numbers.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Sequence

from repro.analysis.tables import render_table
from repro.ioutil import atomic_write_json

__all__ = ["Reporter"]


class Reporter:
    """Collects sections and values; renders text or one JSON doc.

    Text mode streams each section as it arrives (the historical CLI
    behaviour); JSON mode buffers everything and :meth:`close` writes
    a single ``{"sections": [...], "values": {...}}`` document.
    """

    def __init__(self, json_mode: bool = False) -> None:
        self.json_mode = json_mode
        self._doc: dict[str, Any] = {"sections": [], "values": {}}

    def table(self, title: str, headers: Sequence[str],
              rows: Sequence[Sequence[Any]]) -> None:
        if self.json_mode:
            self._doc["sections"].append({
                "title": title,
                "headers": list(headers),
                "rows": [list(r) for r in rows],
            })
        else:
            print(render_table(title, headers, rows))

    def text(self, title: str, body: str = "") -> None:
        if self.json_mode:
            self._doc["sections"].append({"title": title, "text": body})
        else:
            if title:
                print(title)
            if body:
                print(body)

    def value(self, key: str, value: Any) -> None:
        if self.json_mode:
            self._doc["values"][key] = value
        else:
            print(f"{key}: {value}")

    def service_report(self, report: dict[str, Any]) -> None:
        """Report a ``repro.service`` document under its stable key.

        JSON mode stores the (already version-stamped) document at
        the top level as ``service_report``, so consumers address it
        without digging through ``sections``; text mode renders the
        operator tables (load, egress, admission, recovery).
        """
        if self.json_mode:
            self._doc["service_report"] = report
            return
        servers = report.get("servers", {})
        if servers:
            self.table(
                "Service load (concurrent streams)",
                ["media server", "region", "mean", "peak", "samples"],
                [[name, s["region"], f"{s['mean_streams']:.2f}",
                  s["peak_streams"], s["samples"]]
                 for name, s in servers.items()],
            )
        egress = report.get("egress", {})
        if egress.get("by_host"):
            self.table(
                "Egress by serving host",
                ["host", "region", "bytes"],
                [[host, e["region"], e["bytes"]]
                 for host, e in egress["by_host"].items()],
            )
            self.value("origin_egress_bytes", egress.get("origin_bytes"))
            self.value("edge_egress_bytes", egress.get("edge_bytes"))
        admission = report.get("admission", {})
        if admission.get("requests"):
            self.table(
                "Admission",
                ["server", "requests", "admitted", "rejected"],
                [[name, s["requests"], s["admitted"], s["rejected"]]
                 for name, s in admission.get("by_server", {}).items()],
            )
            self.value("blocking_prob",
                       f"{admission.get('blocking_prob', 0.0):.4f}")
        recovery = report.get("recovery", {})
        if recovery.get("detections"):
            recover = recovery.get("time_to_recover_s", {})
            self.table(
                "Recovery",
                ["detections", "failed_over", "lost", "saved",
                 "t_recover_p95_s"],
                [[recovery["detections"],
                  recovery["streams_failed_over"],
                  recovery["streams_lost"],
                  recovery["sessions_saved"],
                  f"{recover.get('p95', 0.0):.3f}"]],
            )

    def artifact(self, key: str, path: str, doc: Any) -> None:
        """Write ``doc`` as a JSON artifact file and report its path.

        Used by the bench harness for ``BENCH_<name>.json`` trajectory
        files: the artifact lands on disk in both modes, and the path
        is reported like any other value.
        """
        atomic_write_json(path, doc)
        self.value(key, path)

    def close(self) -> None:
        """Emit the buffered JSON document (no-op in text mode)."""
        if self.json_mode:
            json.dump(self._doc, sys.stdout, indent=2, default=str)
            sys.stdout.write("\n")
