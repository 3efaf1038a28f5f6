"""Result tables: the structure the table builders return and its text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ResultTable:
    """A labelled grid of numbers mirroring one of the paper's tables.

    ``rows`` maps a row label (method name, configuration name) to a mapping
    from column name to value.  Rendering keeps the column order given in
    ``columns``.
    """

    title: str
    columns: List[str]
    rows: "Dict[str, Dict[str, float]]" = field(default_factory=dict)
    notes: str = ""

    def add_row(self, label: str, values: Dict[str, float]) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"row {label!r} has values for unknown columns {sorted(unknown)}")
        self.rows[label] = dict(values)

    def value(self, row: str, column: str) -> float:
        return self.rows[row][column]

    def column(self, column: str) -> Dict[str, float]:
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r}")
        return {row: values[column] for row, values in self.rows.items() if column in values}

    def best_row(self, column: str, largest: bool = True) -> str:
        """Label of the row with the best value in ``column``."""
        values = self.column(column)
        if not values:
            raise ValueError(f"no values recorded for column {column!r}")
        chooser = max if largest else min
        return chooser(values, key=values.get)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_text(self, float_format: str = "{:8.2f}") -> str:
        """Render as a fixed-width text table (what the benches print)."""
        label_width = max([len("method")] + [len(label) for label in self.rows]) + 2
        header = "".join(f"{column:>10s}" for column in self.columns)
        lines = [self.title, "=" * max(len(self.title), 8), f"{'method':<{label_width}s}{header}"]
        for label, values in self.rows.items():
            cells = []
            for column in self.columns:
                if column in values and values[column] is not None:
                    cells.append(f"{float_format.format(values[column]):>10s}")
                else:
                    cells.append(f"{'-':>10s}")
            lines.append(f"{label:<{label_width}s}" + "".join(cells))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


__all__ = ["ResultTable"]
