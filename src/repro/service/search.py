"""Distributed search client helpers (§6.2.2).

"The user specifies the search token which best describes the topic
of interest, and selects the server that is likely to contain lessons
on the topic ... this particular server sends the query to all other
Hermes servers for the same reason ... The results of the query on
every server are forwarded to the initial server and then directly to
the user."

The server-side forwarding lives in
:meth:`repro.server.multimedia_server.MultimediaServer.search`; this
module adds the client-facing result handling (ranking, location
extraction).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SearchHit", "SearchClient"]


@dataclass(frozen=True, slots=True)
class SearchHit:
    """One matching lesson with its server location."""

    server: str
    document: str


class SearchClient:
    """Flattens and ranks distributed search results."""

    @staticmethod
    def hits(results: dict[str, list[str]],
             home_server: str | None = None) -> list[SearchHit]:
        """Flatten {server: [docs]} into hits; the user's connected
        server sorts first (its lessons are reachable without a
        connection switch)."""
        out: list[SearchHit] = []
        for server in sorted(results,
                             key=lambda s: (s != home_server, s)):
            for doc in results[server]:
                out.append(SearchHit(server=server, document=doc))
        return out
