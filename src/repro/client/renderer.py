"""Virtual display device.

Records what is on the user's desktop over time so tests and examples
can assert presentation correctness without a GUI: which regions show
which element at any instant, plus an ASCII snapshot renderer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.layout import DisplayLayout, Region

__all__ = ["VirtualRenderer", "DisplayInterval"]

#: the ASCII desktop's character canvas
SNAPSHOT_COLS = 64
SNAPSHOT_ROWS = 18


@dataclass(frozen=True, slots=True)
class DisplayInterval:
    element_id: str
    region: Region | None
    shown_at: float
    hidden_at: float | None  # None: still visible


class VirtualRenderer:
    """Tracks show/hide of visual elements against the layout."""

    def __init__(self, layout: DisplayLayout | None = None) -> None:
        self.layout = layout
        self._visible: dict[str, DisplayInterval] = {}
        self.history: list[DisplayInterval] = []

    def show(self, element_id: str, now: float) -> None:
        if element_id in self._visible:
            return
        region = None
        if self.layout is not None and element_id in self.layout.regions:
            region = self.layout.regions[element_id]
        self._visible[element_id] = DisplayInterval(
            element_id=element_id, region=region, shown_at=now, hidden_at=None
        )

    def hide(self, element_id: str, now: float) -> None:
        interval = self._visible.pop(element_id, None)
        if interval is not None:
            self.history.append(
                DisplayInterval(
                    element_id=interval.element_id, region=interval.region,
                    shown_at=interval.shown_at, hidden_at=now,
                )
            )

    def finish(self, now: float) -> None:
        """Close all intervals at presentation end."""
        for element_id in list(self._visible):
            self.hide(element_id, now)

    # -- queries -----------------------------------------------------------
    def visible_now(self) -> list[str]:
        return sorted(self._visible)

    def visible_at(self, t: float) -> list[str]:
        """Element ids visible at time ``t`` (from closed history and
        still-open intervals)."""
        out = set()
        for iv in self.history:
            if iv.shown_at <= t and (iv.hidden_at is None or t < iv.hidden_at):
                out.add(iv.element_id)
        for iv in self._visible.values():
            if iv.shown_at <= t:
                out.add(iv.element_id)
        return sorted(out)

    # -- ASCII desktop --------------------------------------------------
    def ascii_snapshot(self, t: float) -> str:
        """Draw the desktop at time ``t`` as ASCII boxes.

        Each visible element with a layout region is rendered as a
        labelled box scaled onto a ``SNAPSHOT_COLS``×``SNAPSHOT_ROWS``
        character canvas — the "graphical presentation of the scenario"
        half of the paper's Figure 2.
        """
        if self.layout is None:
            return "(no layout attached)"
        cols, rows = SNAPSHOT_COLS, SNAPSHOT_ROWS
        grid = [[" "] * cols for _ in range(rows)]
        sx = cols / self.layout.canvas_width
        sy = rows / self.layout.canvas_height
        for element_id in self.visible_at(t):
            region = self.layout.regions.get(element_id)
            if region is None:
                continue  # audio etc.: no display region
            x0 = max(0, min(cols - 1, int(region.x * sx)))
            y0 = max(0, min(rows - 1, int(region.y * sy)))
            x1 = max(x0 + 1, min(cols - 1, int(region.x2 * sx) - 1))
            y1 = max(y0 + 1, min(rows - 1, int(region.y2 * sy) - 1))
            for x in range(x0, x1 + 1):
                grid[y0][x] = grid[y1][x] = "-"
            for y in range(y0, y1 + 1):
                grid[y][x0] = grid[y][x1] = "|"
            for corner_y, corner_x in ((y0, x0), (y0, x1), (y1, x0),
                                       (y1, x1)):
                grid[corner_y][corner_x] = "+"
            label = element_id[: max(0, x1 - x0 - 1)]
            for i, ch in enumerate(label):
                if x0 + 1 + i < x1:
                    grid[y0 + 1][x0 + 1 + i] = ch
        border = "+" + "-" * cols + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in grid)
        return f"{border}\n{body}\n{border}"
