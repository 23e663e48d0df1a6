"""Service-level telemetry: the operator's view of one run.

Per-session traces and QoE answer "how did this viewer do?"; a
service operator instead watches the fleet: how many streams each
media server carries, how much egress leaves the origin versus the
edges, how often admission turns viewers away, and how fast failures
recover. :func:`service_doc` renders that rollup as one
``repro.service`` document.

Each number has one source. The loads (``samples``, ``servers``,
``regions``) are read off the run's ``repro.timeseries`` document,
the ``streams.<ms>`` columns the sampler records on the *simulated*
clock; the engine's counters supply only what no column holds (egress
bytes per host, admission counts by contract, the watchdogs' recovery
counters and histograms). :func:`merge_service_docs` keeps that split
for a sharded run, so a merged document agrees with its merged series.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import Histogram, log_buckets

__all__ = ["service_doc", "merge_service_docs", "egress_by_host",
           "SERVICE_SCHEMA", "SERVICE_SCHEMA_VERSION", "RECOVERY_BOUNDS"]

SERVICE_SCHEMA = "repro.service"
SERVICE_SCHEMA_VERSION = 1

#: shared bucket bounds for detection/recovery latency histograms —
#: a module constant so every cell buckets identically and a merge
#: never has to reconcile misaligned histograms
RECOVERY_BOUNDS = log_buckets(1e-3, 100.0, per_decade=9)

#: admission and watchdog-recovery counters, in document order
_ADMISSION_COUNTS = ("requests", "admitted", "rejected")
_RECOVERY_COUNTS = ("detections", "streams_failed_over", "streams_lost",
                    "sessions_saved")


def service_doc(engine: Any, series_doc: dict[str, Any]) -> dict[str, Any]:
    """The fleet rollup of ``engine`` as of the current simulated instant.

    Loads come from ``series_doc``, the sampler's document of the same
    run (zero-padded, so a media server provisioned mid-run counts as
    idle for the ticks before it existed); egress, admission and
    recovery are read live off the engine.
    """
    regions = {ms.name: ms.region or "origin"
               for server in engine.servers.values()
               for ms in server.all_media_servers()}
    admission = {name: {key: getattr(server.admission.stats, key)
                        for key in (*_ADMISSION_COUNTS, "by_contract")}
                 for name, server in engine.servers.items()}
    counts = dict.fromkeys(_RECOVERY_COUNTS, 0)
    detect = Histogram(bounds=RECOVERY_BOUNDS)
    recover = Histogram(bounds=RECOVERY_BOUNDS)
    for watchdog in engine.watchdogs.values():
        counts["detections"] += watchdog.detections
        counts["streams_failed_over"] += watchdog.streams_failed_over
        counts["streams_lost"] += watchdog.streams_lost
        counts["sessions_saved"] += len(watchdog.sessions_saved)
        detect.observe_many(watchdog.detect_times)
        recover.observe_many(watchdog.recover_times)
    return _render(series_doc, engine.sim.now, regions,
                   egress_by_host(engine), admission, counts,
                   detect, recover)


def merge_service_docs(docs: list[dict[str, Any]],
                       merged_series_doc: dict[str, Any]) -> dict[str, Any]:
    """One fleet rollup from per-cell ``repro.service`` documents.

    Egress bytes, admission counts and recovery counters add; recovery
    histograms merge bucket-wise, folded in the order given (callers
    pass canonical cell order). ``duration_s`` is the longest cell's.
    ``samples``, ``interval_s`` and every load are read off
    ``merged_series_doc``, the cells' series merged; the cells'
    ``servers`` entries supply only each server's region. A server or
    host whose region differs between cells raises :class:`ValueError`.
    """
    regions: dict[str, str] = {}
    egress: dict[str, dict[str, Any]] = {}
    admission: dict[str, dict[str, Any]] = {}
    counts = dict.fromkeys(_RECOVERY_COUNTS, 0)
    detect = Histogram(bounds=RECOVERY_BOUNDS)
    recover = Histogram(bounds=RECOVERY_BOUNDS)
    duration_s = 0.0
    for doc in docs:
        duration_s = max(duration_s, doc["duration_s"])
        for name, load in doc["servers"].items():
            _same_region(name, regions.setdefault(name, load["region"]),
                         load["region"])
        for host, entry in doc["egress"]["by_host"].items():
            kept = egress.setdefault(host, {"bytes": 0,
                                            "region": entry["region"]})
            _same_region(host, kept["region"], entry["region"])
            kept["bytes"] += entry["bytes"]
        for name, stats in doc["admission"]["by_server"].items():
            acc = admission.setdefault(name, {
                **dict.fromkeys(_ADMISSION_COUNTS, 0), "by_contract": {}})
            for key in _ADMISSION_COUNTS:
                acc[key] += stats[key]
            for contract, (adm, rej) in stats["by_contract"].items():
                pair = acc["by_contract"].setdefault(contract, [0, 0])
                pair[0] += adm
                pair[1] += rej
        recovery = doc["recovery"]
        for key in _RECOVERY_COUNTS:
            counts[key] += recovery[key]
        detect = detect.merge(_hist_from_dict(recovery["time_to_detect_s"]))
        recover = recover.merge(
            _hist_from_dict(recovery["time_to_recover_s"]))
    return _render(merged_series_doc, duration_s, regions, egress,
                   admission, counts, detect, recover)


def _same_region(name: str, kept: str, region: str) -> None:
    if kept != region:
        raise ValueError(f"{name!r} changed region across cells "
                         f"({kept!r} != {region!r})")


def _render(series_doc: dict[str, Any], duration_s: float,
            regions: dict[str, str], egress: dict[str, dict[str, Any]],
            admission: dict[str, dict[str, Any]], counts: dict[str, int],
            detect: Histogram, recover: Histogram) -> dict[str, Any]:
    """The ``repro.service`` document; loads come from the series."""
    columns = series_doc["columns"]
    servers: dict[str, dict[str, Any]] = {}
    for name in sorted(regions):
        streams = columns.get(f"streams.{name}", {}).get("values")
        if streams:
            servers[name] = _load(regions[name], len(streams),
                                  int(sum(streams)), int(max(streams)))
    by_region: dict[str, list[int]] = {}
    for load in servers.values():
        acc = by_region.setdefault(load["region"], [0, 0, 0])
        acc[0] += load["samples"]
        acc[1] += load["sum_streams"]
        acc[2] = max(acc[2], load["peak_streams"])
    total = sum(e["bytes"] for e in egress.values())
    origin = sum(e["bytes"] for e in egress.values()
                 if e["region"] == "origin")
    totals = {key: sum(s[key] for s in admission.values())
              for key in _ADMISSION_COUNTS}
    return {
        "schema": SERVICE_SCHEMA,
        "version": SERVICE_SCHEMA_VERSION,
        "interval_s": series_doc["interval_s"],
        "duration_s": duration_s,
        "samples": series_doc["ticks"],
        "servers": servers,
        "regions": {region: _load(region, *acc)
                    for region, acc in by_region.items()},
        "egress": {
            "origin_bytes": origin,
            "edge_bytes": total - origin,
            "total_bytes": total,
            "origin_egress_bps": (origin * 8.0 / duration_s
                                  if duration_s else 0.0),
            "by_host": {h: dict(egress[h]) for h in sorted(egress)},
        },
        "admission": {
            **totals,
            "blocking_prob": (totals["rejected"] / totals["requests"]
                              if totals["requests"] else 0.0),
            "by_server": {
                name: {**{key: s[key] for key in _ADMISSION_COUNTS},
                       "by_contract": {c: list(s["by_contract"][c])
                                       for c in sorted(s["by_contract"])}}
                for name, s in sorted(admission.items())},
        },
        "recovery": {**counts,
                     "time_to_detect_s": _hist_dict(detect),
                     "time_to_recover_s": _hist_dict(recover)},
    }


def _load(region: str, samples: int, sum_streams: int,
          peak_streams: int) -> dict[str, Any]:
    """Sampled concurrent-stream load of one server or region."""
    return {"region": region, "samples": samples,
            "sum_streams": sum_streams, "peak_streams": peak_streams,
            "mean_streams": sum_streams / samples if samples else 0.0}


def _hist_dict(hist: Histogram) -> dict[str, Any]:
    """Summary plus raw bucket counts (what a merge reads back)."""
    return {**hist.summary(), "buckets": list(hist.bucket_counts)}


def _hist_from_dict(doc: dict[str, Any]) -> Histogram:
    """The histogram :func:`_hist_dict` wrote."""
    if not doc["count"]:
        return Histogram(bounds=RECOVERY_BOUNDS)
    return Histogram(bounds=RECOVERY_BOUNDS,
                     bucket_counts=list(doc["buckets"]), count=doc["count"],
                     total=doc["sum"], min=doc["min"], max=doc["max"])


def egress_by_host(engine: Any) -> dict[str, dict[str, Any]]:
    """Bytes sent so far off every serving media host (origin + replicas).

    Sorted host -> ``{"bytes": ..., "region": ...}``: the one place
    that maps media servers to their hosts and sums the hosts'
    outgoing ``link.stats.tx_bytes``.
    """
    regions = {
        ms.node_id: ms.region or "origin"
        for server in engine.servers.values()
        for ms in server.all_media_servers()
    }
    out: dict[str, dict[str, Any]] = {
        host: {"bytes": 0, "region": regions[host]}
        for host in sorted(regions)
    }
    for (src, _dst), link in engine.network.links.items():
        if src in out:
            out[src]["bytes"] += link.stats.tx_bytes
    return out
