"""Price ingestion, grid alignment, resampling, and log-return matrices.

Input files are one CSV per asset with header ``timestamp,price``; timestamps
are epoch milliseconds on a uniform base-period grid. Assets are aligned on
the intersection of their covered time ranges, interior gaps are filled with
the last observed price, and assets are ordered lexicographically.
Both price formats, these files and the aligned panel, are written here too.
The panel file copies each price as its input file spells it, so writing it
formats no float.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

MS_PER_MINUTE = 60_000

__all__ = [
    "MS_PER_MINUTE",
    "PricePanel",
    "ReturnMatrix",
    "load_prices",
    "resample",
    "log_returns",
    "write_price_files",
    "write_panel_csv",
    "load_panel_csv",
]


@dataclass(frozen=True)
class PricePanel:
    """Aligned per-asset prices on a shared, uniformly spaced timestamp grid."""

    timestamps: np.ndarray  # (p + 1,) epoch ms, strictly increasing, uniform step
    assets: tuple[str, ...]
    prices: np.ndarray  # (p + 1, n) strictly positive
    period_minutes: int
    # Each asset's prices as its input file spells them, a (p + 1,) bytes array per asset, which
    # ``write_panel_csv`` copies into the panel file; None where the panel was not read from files.
    text: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "assets", tuple(self.assets))
        if self.period_minutes < 1:
            raise ValueError(f"period_minutes must be positive, got {self.period_minutes}")
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError("panel needs at least two timestamps")
        step = self.period_minutes * MS_PER_MINUTE
        diffs = np.diff(ts)
        if not np.all(diffs == step):
            bad = int(np.argmax(diffs != step))
            raise ValueError(
                f"timestamps must be strictly increasing with a constant {step} ms step; "
                f"violation after index {bad} (t={ts[bad]})"
            )
        if prices.shape != (ts.size, len(self.assets)):
            raise ValueError(f"prices shape {prices.shape} does not match {(ts.size, len(self.assets))}")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise ValueError("all prices must be finite and strictly positive")
        if self.text is not None:
            object.__setattr__(self, "text", tuple(np.asarray(t) for t in self.text))
            if len(self.text) != len(self.assets) or any(
                t.dtype.kind != "S" or t.shape != ts.shape for t in self.text
            ):
                raise ValueError(f"text must hold one bytes array of {ts.size} cells per asset")

    @property
    def n_assets(self) -> int:
        return len(self.assets)


@dataclass(frozen=True)
class ReturnMatrix:
    """Log-returns per asset; row i covers the interval ending at timestamps[i]."""

    period_minutes: int
    timestamps: np.ndarray  # (p,)
    assets: tuple[str, ...]
    returns: np.ndarray  # (p, n)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        ret = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "returns", ret)
        object.__setattr__(self, "assets", tuple(self.assets))
        if ret.shape != (ts.size, len(self.assets)):
            raise ValueError(f"returns shape {ret.shape} does not match {(ts.size, len(self.assets))}")
        if not np.all(np.isfinite(ret)):
            raise ValueError("all returns must be finite")

    @property
    def n_assets(self) -> int:
        return len(self.assets)


# A price is read twice from one field: as a float, and as the bytes of its
# spelling, at most _TEXT_WIDTH of them. A positive float's repr is at most 23 bytes.
_TEXT_WIDTH = 24
_PRICE_ROW = np.dtype([("timestamp", np.int64), ("price", np.float64), ("text", f"S{_TEXT_WIDTH}")])
_PRICE_ONLY_ROW = np.dtype([("timestamp", np.int64), ("price", np.float64)])
# bytes a spelling may hold to be copied into a CSV cell as it is; NUL pads a short token
_VERBATIM = bytes([0, *range(0x20, 0x7F)])


def _read_header(path: Path) -> tuple[list[str], bool]:
    """The header fields of a CSV file, and whether a non-blank line follows them."""
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader([fh.readline()]), [])
        return header, any(not line.isspace() for line in fh)


def _read_body(path: Path, row: np.dtype, usecols: tuple[int, ...] | None = None) -> np.ndarray:
    """The rows after the header, parsed by numpy's C reader; empty lines are skipped."""
    try:
        return np.loadtxt(
            path,
            delimiter=",",
            dtype=row,
            usecols=usecols,
            ndmin=1,
            skiprows=1,
            comments=None,
            quotechar='"',
            encoding="utf-8",
        )
    except ValueError as exc:
        raise ValueError(f"{path.name}: malformed or unparseable row: {exc}") from exc


def _repr_text(values: np.ndarray) -> np.ndarray:
    """Each float's ``repr``, as bytes: the cells of a price column written from its values."""
    return np.array([repr(v) for v in values.tolist()], dtype=np.bytes_)


def _verbatim_text(field: np.ndarray) -> np.ndarray | None:
    """A file's price spellings narrowed to its longest one, or None where they cannot be copied as read.

    A token that fills the field may have been cut short. A byte outside
    printable ASCII would not read back as the same cell: a line break
    inside quotes splits the row, and a Latin-1 byte is not UTF-8.
    """
    width = int(np.char.str_len(field).max())
    if width >= _TEXT_WIDTH:
        return None
    text = field.astype(f"S{width}")
    return None if text.tobytes().translate(None, _VERBATIM) else text


def _read_price_file(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One file's timestamps, prices and each price's spelling, sorted by timestamp.

    The spelling is the field as the file holds it, quotes removed, or the
    price's ``repr`` where ``_verbatim_text`` refuses the file's spellings.
    """
    header, has_rows = _read_header(path)
    if [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
        raise ValueError(f"{path.name}: expected header 'timestamp,price'")
    if not has_rows:
        raise ValueError(f"{path.name}: file contains no price rows")
    try:
        rows = _read_body(path, _PRICE_ROW, usecols=(0, 1, 1))
    except ValueError:
        # The bytes field refuses a character beyond Latin-1 (a Unicode space) that the float
        # field reads past; a second read of the prices alone raises any real parse error.
        rows, text = _read_body(path, _PRICE_ONLY_ROW, usecols=(0, 1)), None
    else:
        text = _verbatim_text(rows["text"])
    ts_arr, px_arr = rows["timestamp"], rows["price"]
    bad = ~(np.isfinite(px_arr) & (px_arr > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"{path.name}: price {px_arr[i]} at row {i + 1} (timestamp {ts_arr[i]}) is not finite and positive"
        )
    order = np.argsort(ts_arr, kind="stable")
    ts_arr, px_arr = ts_arr[order], px_arr[order]
    dup = np.nonzero(np.diff(ts_arr) == 0)[0]
    if dup.size:
        raise ValueError(f"{path.name}: duplicate timestamp {ts_arr[dup[0]]}")
    return ts_arr, px_arr, _repr_text(px_arr) if text is None else text[order]


def load_prices(
    sources: Iterable[str | Path],
    base_period_minutes: int = 1,
    min_rows: int = 2,
) -> PricePanel:
    """Load per-asset price CSVs and align them on a common base-period grid.

    The panel covers the intersection of all assets' time ranges; interior
    gaps are forward-filled from the last observed price. Rejects files with
    no rows, non-positive prices, off-grid timestamps, or an overlap shorter
    than ``min_rows`` grid points. Its ``text`` holds each price as its file
    spells it (see ``_read_price_file``).

    The files are read one at a time, in asset order, and each is checked
    before the next is read, so the first bad file in that order is named.
    Each file's column is filled on the running intersection of the ranges
    read so far. That range only loses rows at its ends, so a column filled
    earlier is still right on the rows that remain. The prices go into one
    column-major block spanning the first file's range, of which only the
    written rows become resident, and the panel's ``prices`` are the final
    range's rows of it (each asset's column contiguous).
    """
    paths = sorted((Path(p) for p in sources), key=lambda p: p.stem)
    if len(paths) < 2:
        raise ValueError(f"need at least 2 assets, got {len(paths)}")
    names = [p.stem for p in paths]
    if len(set(names)) != len(names):
        raise ValueError("duplicate asset names among input files")
    if base_period_minutes < 1:
        raise ValueError(f"base_period_minutes must be positive, got {base_period_minutes}")

    step = base_period_minutes * MS_PER_MINUTE
    spellings: list[tuple[int, np.ndarray]] = []  # (first grid point, spellings on the running range) per asset
    for j, (name, path) in enumerate(zip(names, paths)):
        ts, px, spelled = _read_price_file(path)
        if j == 0:
            phase, origin, start, end = int(ts[0] % step), int(ts[0]), int(ts[0]), int(ts[-1])
            block = np.empty(((end - start) // step + 1, len(paths)), order="F")
        off = ts % step
        if np.any(off != phase):
            bad = int(np.argmax(off != phase))
            raise ValueError(f"{name}: timestamp {ts[bad]} is off the {step} ms grid")
        start, end = max(start, int(ts[0])), min(end, int(ts[-1]))
        grid = np.arange(start, end + 1, step, dtype=np.int64)
        idx = np.searchsorted(ts, grid, side="right") - 1  # last observation at or before each grid point
        first = (start - origin) // step
        block[first : first + grid.size, j] = px[idx]
        spellings.append((start, spelled[idx]))

    if end < start or (end - start) // step + 1 < min_rows:
        raise ValueError(
            f"common overlap [{start}, {end}] is shorter than {min_rows} grid points"
        )
    rows = (end - start) // step + 1
    text = []
    for begin, spelled in spellings:
        cut = spelled[(start - begin) // step :][:rows]
        text.append(cut if cut.size == spelled.size else cut.copy())  # a copy lets the longer column go
    first = (start - origin) // step
    return PricePanel(
        timestamps=np.arange(start, end + 1, step, dtype=np.int64),
        assets=tuple(names),
        prices=block[first : first + rows],
        period_minutes=base_period_minutes,
        text=tuple(text),
    )


def resample(panel: PricePanel, period_minutes: int) -> PricePanel:
    """Keep the last price of each period bucket, aligned to the panel end.

    ``period_minutes`` must be a positive multiple of the panel period; the
    retained timestamps are those congruent to the final timestamp modulo the
    new period, i.e. each bucket contributes its last observed price.
    """
    if period_minutes < 1 or period_minutes % panel.period_minutes != 0:
        raise ValueError(
            f"period {period_minutes} is not a positive multiple of the base period {panel.period_minutes}"
        )
    k = period_minutes // panel.period_minutes
    if k == 1:
        return panel
    rows = panel.timestamps.size
    first = (rows - 1) % k
    idx = np.arange(first, rows, k)
    if idx.size < 2:
        raise ValueError(f"resampling to {period_minutes} minutes leaves fewer than 2 prices")
    return PricePanel(
        timestamps=panel.timestamps[idx],
        assets=panel.assets,
        prices=panel.prices[idx],
        period_minutes=period_minutes,
    )


def log_returns(panel: PricePanel) -> ReturnMatrix:
    """Natural-log returns; row i is ln P(t_{i+1}) - ln P(t_i), stamped t_{i+1}."""
    rets = np.diff(np.log(panel.prices), axis=0)
    return ReturnMatrix(
        period_minutes=panel.period_minutes,
        timestamps=panel.timestamps[1:],
        assets=panel.assets,
        returns=rets,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_table(path: Path, header: Sequence[str], timestamps: np.ndarray, columns: Sequence[np.ndarray]) -> None:
    """A CSV as ``csv.writer`` writes it, CRLF line ends: the header, then each timestamp and its cells.

    ``columns`` holds one bytes array per column after the timestamp, each
    cell written as it is. Blocks of ~2**12 cells: one ``tolist`` per column
    and block turns the cells into bytes objects, and a join per row writes
    them; larger blocks were no faster and held megabytes of those objects.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    line = io.StringIO()
    csv.writer(line).writerow(header)
    stamps = timestamps.astype(np.bytes_)
    block = max(1, (1 << 12) // max(1, len(columns)))
    with open(path, "wb") as fh:
        fh.write(line.getvalue().encode("utf-8"))
        for start in range(0, len(stamps), block):
            cells = [column[start : start + block].tolist() for column in columns]
            rows = map(b",".join, zip(stamps[start : start + block].tolist(), *cells))
            fh.write(b"".join(map(b"%s\r\n".__mod__, rows)))


def write_price_files(panel: PricePanel, out_dir: str | Path) -> list[Path]:
    """One ``timestamp,price`` CSV per asset, named after it, each price its ``repr``, as ``load_prices`` reads them."""
    paths = [Path(out_dir) / f"{asset}.csv" for asset in panel.assets]
    for path, column in zip(paths, panel.prices.T):
        _write_table(path, ["timestamp", "price"], panel.timestamps, [_repr_text(column)])
    return paths


def write_panel_csv(panel: PricePanel, path: str | Path) -> None:
    """The panel as ``timestamp,<asset>,...``: each price as ``panel.text`` spells it, else its ``repr``."""
    columns = panel.text if panel.text is not None else [_repr_text(column) for column in panel.prices.T]
    _write_table(Path(path), ["timestamp", *panel.assets], panel.timestamps, columns)


def load_panel_csv(path: str | Path) -> PricePanel:
    path = Path(path)
    header, has_rows = _read_header(path)
    if not header or header[0] != "timestamp" or len(header) < 3:
        raise ValueError(f"{path.name}: expected header 'timestamp,<asset>,...' with >= 2 assets")
    assets = tuple(header[1:])
    row = np.dtype([("timestamp", np.int64), ("prices", np.float64, (len(assets),))])
    rows = _read_body(path, row) if has_rows else np.empty(0, dtype=row)
    if rows.size < 2:
        raise ValueError(f"{path.name}: panel cache has fewer than 2 rows")
    ts = rows["timestamp"]
    steps = np.diff(ts)
    step = int(steps[0])
    if step <= 0 or step % MS_PER_MINUTE != 0 or not np.all(steps == step):
        raise ValueError(f"{path.name}: timestamps are not a uniform minute-multiple grid")
    return PricePanel(
        timestamps=np.ascontiguousarray(ts),
        assets=assets,
        prices=np.ascontiguousarray(rows["prices"]),
        period_minutes=step // MS_PER_MINUTE,
    )
