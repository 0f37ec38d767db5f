"""CSV/JSON/config ingestion and serialization for the command-line surface.

Input CSV: header row with columns ``y`` (0/1), ``eta_hat`` (float) and
optional feature columns ``x0..x{d-1}``.  Pool CSV: feature columns only.
External score CSV: ``sample_index``, ``counterfeit_index`` (0 = original),
``score``.  Simulation configs are flat ``key = value`` files (a
TOML-compatible subset: numbers, booleans, quoted strings, and flat lists).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import re
from typing import List, Tuple

import numpy as np

from .experiments import ExperimentSpec, ResultRow
from .sampling import EvalSample

__all__ = [
    "InputError",
    "read_samples_csv",
    "read_pool_csv",
    "read_scores_csv",
    "read_theta",
    "parse_flat_config",
    "spec_from_config",
    "dump_json",
    "rows_to_csv",
    "rows_to_json",
]


class InputError(ValueError):
    """Malformed user input; the CLI maps this to exit code 2."""


_X_COL = re.compile(r"^x(\d+)$")


def _feature_columns(header: List[str]) -> List[Tuple[int, str]]:
    found = []
    for name in header:
        m = _X_COL.match(name)
        if m:
            found.append((int(m.group(1)), name))
    found.sort()
    if found and [i for i, _ in found] != list(range(len(found))):
        raise InputError("feature columns must be contiguous x0..x{d-1}")
    return found


def read_samples_csv(path: str) -> List[EvalSample]:
    """Parse held-out samples; raises InputError with the offending line."""
    samples: List[EvalSample] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty file")
        if "y" not in reader.fieldnames or "eta_hat" not in reader.fieldnames:
            raise InputError(f"{path}: required columns y and eta_hat not found")
        xcols = [name for _, name in _feature_columns(reader.fieldnames)]
        for line_no, row in enumerate(reader, start=2):
            try:
                y = int(row["y"])
                eta_hat = float(row["eta_hat"])
                x = np.array([float(row[c]) for c in xcols], dtype=float)
            except (TypeError, ValueError, KeyError):
                raise InputError(f"{path}: malformed row at line {line_no}") from None
            if y not in (0, 1):
                raise InputError(f"{path}: line {line_no}: y must be 0 or 1")
            if not np.isfinite(x).all():
                raise InputError(f"{path}: line {line_no}: non-finite feature value")
            if not 0.0 <= eta_hat <= 1.0:
                raise InputError(
                    f"{path}: line {line_no}: probability out of range: eta_hat={eta_hat}"
                )
            samples.append(EvalSample(x=x, y=y, eta_hat=eta_hat))
    if not samples:
        raise InputError(f"{path}: no data rows")
    return samples


def read_pool_csv(path: str) -> np.ndarray:
    """Parse an unlabeled feature pool (columns x0..x{d-1})."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputError(f"{path}: empty file")
        xcols = [name for _, name in _feature_columns(reader.fieldnames)]
        if not xcols:
            raise InputError(f"{path}: no feature columns x0..x{{d-1}} found")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            try:
                rows.append([float(row[c]) for c in xcols])
            except (TypeError, ValueError):
                raise InputError(f"{path}: malformed row at line {line_no}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    pool = np.asarray(rows, dtype=float)
    finite = np.isfinite(pool).all(axis=1)
    if not finite.all():
        raise InputError(f"{path}: line {int(np.argmin(finite)) + 2}: non-finite feature value")
    return pool


def read_scores_csv(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse externally computed scores: the sample index, candidate index
    and score columns, in file order."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"sample_index", "counterfeit_index", "score"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise InputError(
                f"{path}: required columns sample_index, counterfeit_index, score"
            )
        for line_no, row in enumerate(reader, start=2):
            try:
                # np.int64 raises OverflowError on an index no array can hold
                j = np.int64(int(row["sample_index"]))
                i = np.int64(int(row["counterfeit_index"]))
                score = float(row["score"])
            except (TypeError, ValueError, OverflowError):
                raise InputError(f"{path}: malformed row at line {line_no}") from None
            if not math.isfinite(score):
                raise InputError(f"{path}: line {line_no}: non-finite score")
            rows.append((j, i, score))
    if not rows:
        raise InputError(f"{path}: no data rows")
    j, i, score = zip(*rows)
    return np.array(j), np.array(i), np.array(score)


def read_theta(path: str) -> np.ndarray:
    """Parse a coefficient vector: one float per line (comments with #)."""
    values = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise InputError(f"{path}: line {line_no}: not a number: {text!r}") from None
            if not math.isfinite(values[-1]):
                raise InputError(f"{path}: line {line_no}: non-finite coefficient: {text!r}")
    if not values:
        raise InputError(f"{path}: no coefficients found")
    return np.asarray(values, dtype=float)


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if (text.startswith('"') and text.endswith('"')) or (
        text.startswith("'") and text.endswith("'")
    ):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_flat_config(text: str) -> dict:
    """Parse flat key = value lines (TOML-compatible subset, flat lists allowed)."""
    out = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            out[key] = (
                tuple(_parse_scalar(v) for v in inner.split(",") if v.strip())
                if inner
                else ()
            )
        else:
            out[key] = _parse_scalar(value)
    return out


_SPEC_KEYS = {f.name for f in dataclasses.fields(ExperimentSpec)}


def spec_from_config(cfg: dict) -> Tuple[str, ExperimentSpec]:
    """Build (kind, ExperimentSpec) from a parsed flat config."""
    kind = cfg.get("kind", "size")
    if kind not in ("size", "power"):
        raise InputError("config key 'kind' must be 'size' or 'power'")
    fields = {}
    for key, value in cfg.items():
        if key == "kind":
            continue
        if key not in _SPEC_KEYS:
            raise InputError(f"unknown config key {key!r}")
        fields[key] = value
    for key in ("tau_grid", "alphas", "variants"):
        if key in fields and not isinstance(fields[key], tuple):
            fields[key] = (fields[key],)
    if "tau_grid" in fields:
        fields["tau_grid"] = tuple(float(t) for t in fields["tau_grid"])
    if "alphas" in fields:
        fields["alphas"] = tuple(float(a) for a in fields["alphas"])
    try:
        spec = ExperimentSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid experiment config: {exc}") from None
    return kind, spec


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_ROW_FIELDS = [f.name for f in dataclasses.fields(ResultRow)]


def rows_to_csv(rows: List[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_ROW_FIELDS)
    for row in rows:
        writer.writerow(["" if (v := getattr(row, f)) is None else v for f in _ROW_FIELDS])
    return buf.getvalue()


def rows_to_json(rows: List[ResultRow]) -> str:
    return dump_json([{f: getattr(r, f) for f in _ROW_FIELDS} for r in rows])


def rows_to_plot_data(rows: List[ResultRow], fmt: str = "csv") -> str:
    """Long-format (tau, power) series per decision rule and divergence."""
    points = []
    for row in rows:
        for variant, rate in (
            ("asym", row.rejection_rate_asym),
            ("finite", row.rejection_rate_finite),
        ):
            if rate == rate:  # skip NaN for variants that were not run
                points.append(
                    {
                        "divergence": row.divergence,
                        "variant": variant,
                        "alpha": row.alpha,
                        "tau": row.tau,
                        "power": rate,
                    }
                )
    points.sort(key=lambda p: (p["divergence"], p["variant"], p["alpha"], p["tau"]))
    if fmt == "json":
        return dump_json(points)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["divergence", "variant", "alpha", "tau", "power"])
    for p in points:
        writer.writerow([p["divergence"], p["variant"], p["alpha"], p["tau"], p["power"]])
    return buf.getvalue()
