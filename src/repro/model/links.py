"""Interconnection abstraction: the web of linked documents.

Sequential links form the author's intended reading order; exploration
links branch sideways. The web is a directed multigraph over document
names (optionally qualified by host for cross-server links), used by
the service layer for navigation and by Hermes for lesson sequencing.
"""

from __future__ import annotations

from repro.hml.ast import HmlDocument, LinkKind

__all__ = ["DocumentWeb"]

#: the longest sequential path followed
MAX_PATH = 100


class DocumentWeb:
    """Directed graph of documents connected by hyperlinks."""

    def __init__(self) -> None:
        #: document key -> host, of every document added or linked to
        self._hosts: dict[str, str] = {}
        #: added document's key -> {target key -> its links' attributes},
        #: targets in first-link order
        self._out: dict[str, dict[str, list[dict]]] = {}

    # -- construction -----------------------------------------------------
    def add_document(self, name: str, doc: HmlDocument,
                     host: str = "") -> None:
        """Register a document and its outgoing links.

        ``name`` is the document's own name; link targets of the form
        "host:doc" point across servers, bare targets stay on
        ``host``.
        """
        key = self._key(host, name)
        if key in self._out:
            raise ValueError(f"document {key!r} already added")
        self._hosts[key] = host
        out = self._out[key] = {}
        for link in doc.hyperlinks():
            target_host = link.target_host if link.target_host is not None else host
            target_key = self._key(target_host, link.target_document)
            self._hosts.setdefault(target_key, target_host)
            out.setdefault(target_key, []).append({
                "kind": link.kind, "at_time": link.at_time, "note": link.note})

    @staticmethod
    def _key(host: str, name: str) -> str:
        return f"{host}:{name}" if host else name

    # -- queries -------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._hosts

    def documents(self) -> list[str]:
        return sorted(self._hosts)

    def links_from(self, key: str,
                   kind: LinkKind | None = None) -> list[tuple[str, dict]]:
        """The links leaving ``key``, grouped by target."""
        return [(dst, data)
                for dst, links in self._out.get(key, {}).items()
                for data in links
                if kind is None or data["kind"] is kind]

    def sequential_successor(self, key: str) -> str | None:
        """The unique sequential next document, if any.

        Prefers a timed (AT) link — the author's automatic
        progression — over untimed sequential links.
        """
        seq = self.links_from(key, kind=LinkKind.SEQUENTIAL)
        if not seq:
            return None
        timed = [(d, l) for d, l in seq if l.get("at_time") is not None]
        chosen = timed[0] if timed else seq[0]
        return chosen[0]

    def sequential_path(self, start: str) -> list[str]:
        """Follow sequential links from ``start`` (cycle-safe, at most
        ``MAX_PATH`` documents)."""
        path = [start]
        seen = {start}
        current = start
        while len(path) < MAX_PATH:
            nxt = self.sequential_successor(current)
            if nxt is None or nxt in seen:
                break
            path.append(nxt)
            seen.add(nxt)
            current = nxt
        return path
