"""Plain-text table rendering.

The benchmark harnesses print paper-style tables to stdout (the
reproduction's equivalent of the paper's Table 1 and figure captions).
:class:`Table` is a minimal fixed-width renderer with no dependencies —
column widths auto-size to content, floats get per-column formats.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..errors import ConfigurationError

__all__ = ["Table"]


class Table:
    """A fixed-width text table.

    Parameters
    ----------
    headers:
        Column titles.
    formats:
        Optional per-column format specs (e.g. ``".1f"``); ``None``
        entries fall back to ``str``.
    title:
        Optional caption printed above the table.
    """

    def __init__(
        self,
        headers: Sequence[str],
        formats: Optional[Sequence[Optional[str]]] = None,
        title: str = "",
    ) -> None:
        if not headers:
            raise ConfigurationError("table needs at least one column")
        self.headers = list(headers)
        if formats is None:
            formats = [None] * len(headers)
        if len(formats) != len(headers):
            raise ConfigurationError(
                f"{len(formats)} formats for {len(headers)} columns"
            )
        self.formats = list(formats)
        self.title = title
        self._rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append a row; cell count must match the header."""
        if len(cells) != len(self.headers):
            raise ConfigurationError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns"
            )
        rendered = []
        for cell, fmt in zip(cells, self.formats):
            if fmt is not None and isinstance(cell, (int, float)):
                rendered.append(format(cell, fmt))
            else:
                rendered.append(str(cell))
        self._rows.append(rendered)

    def render(self) -> str:
        """The formatted table as a string."""
        widths = [len(h) for h in self.headers]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_line(cells: Sequence[str]) -> str:
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt_line(self.headers))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt_line(row) for row in self._rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
