"""Fixed-width table rendering for experiment reports."""

from typing import List, Mapping, Optional, Sequence


class Table:
    """A simple column-aligned text table (Table-2-style output)."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []
        self._sections: List[int] = []  # row indices before which a rule goes

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(f"expected {len(self.headers)} cells, "
                             f"got {len(cells)}")
        self.rows.append([str(cell) for cell in cells])

    def add_section(self, label: str) -> None:
        """Start a labelled section (like Table 2's per-benchmark blocks)."""
        self._sections.append(len(self.rows))
        self.rows.append([label] + [""] * (len(self.headers) - 1))

    def render(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells):
            return "  ".join(cell.ljust(width)
                             for cell, width in zip(cells, widths)).rstrip()

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = []
        if self.title:
            out.append(self.title)
            out.append("=" * len(self.title))
        out.append(line(self.headers))
        out.append(rule)
        for index, row in enumerate(self.rows):
            if index in self._sections:
                out.append(rule)
            out.append(line(row))
        return "\n".join(out)


#: Display order and labels for :func:`resilience_report`.
_RESILIENCE_ROWS = (
    ("faults_injected", "faults injected (total)"),
    ("slave_errors_injected", "slave error responses injected"),
    ("hop_faults_injected", "interconnect hops perturbed"),
    ("hop_delay_cycles", "extra hop cycles injected"),
    ("hop_stalls_injected", "transient link stalls"),
    ("sem_drops_injected", "semaphore releases dropped"),
    ("sem_delays_injected", "semaphore releases delayed"),
    ("error_responses", "error responses seen by masters"),
    ("retries", "transactions retried"),
    ("retry_backoff_cycles", "backoff cycles spent"),
    ("degraded_transactions", "transactions degraded"),
    ("watchdog_trips", "watchdog trips"),
)


def resilience_report(counters: Mapping[str, int],
                      title: str = "Fault injection / resilience") -> str:
    """Render a resilience-counter mapping (or a
    :class:`~repro.stats.counters.ResilienceCounters`) as a table,
    omitting all-zero rows except the headline total."""
    if hasattr(counters, "as_dict"):
        counters = counters.as_dict()
    table = Table(["counter", "value"], title=title)
    for key, label in _RESILIENCE_ROWS:
        value = counters.get(key, 0)
        if value or key == "faults_injected":
            table.add_row(label, value)
    return table.render()
