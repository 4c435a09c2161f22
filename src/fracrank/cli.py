"""Batch CLI: score a corpus, analyze a sequence, generate synthetic series.

Every run writes a ``manifest.json`` echoing the fully resolved configuration;
``fracrank rerun MANIFEST --out DIR`` reproduces the run byte-for-byte. A run
computes everything before it writes its first file, so a failed run writes
nothing. Each file write is atomic (temp file + rename); tables use the one
CSV dialect of ``fracrank.table`` and JSON rejects non-finite numbers.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from fracrank.corpus import Query, ingest_jsonl_path
from fracrank.fractal import (
    DegenerateSeriesError,
    dfa,
    hurst_pointwise,
    hurst_regression,
)
from fracrank.rankstats import (
    MAX_TRIM,
    RankStatsError,
    empirical_cdf_map,
    occupancy_stats,
    poincare_map,
    zipf_fit,
)
from fracrank.relevance import Measure, RelevanceTable, mutual_sequence, score_corpus
from fracrank.synth import (
    SynthError,
    fgn,
    linear_trend,
    power_law_ranks,
    read_series_csv,
    white_noise,
    write_series_csv,
)
from fracrank.table import format_table, write_atomic

OUT_ENV_VAR = "FRACRANK_OUT"


@dataclass(frozen=True)
class ScoreConfig:
    corpus: str
    query: str


@dataclass(frozen=True)
class AnalyzeConfig:
    scores: str | None = None
    series: str | None = None
    ranked_by: str = "q"
    read_off: str = "f"
    trim: float = 0.05
    grid: int = 32
    include_zero_scores: bool = False
    dfa_windows: tuple[int, ...] | None = None
    rs_windows: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SynthConfig:
    kind: str
    length: int
    seed: int = 0
    h: float | None = None
    beta: float | None = None
    noise: float = 0.0
    slope: float | None = None
    intercept: float | None = None


# The generator kinds: every --kind spelling maps to (name in messages, the
# options that kind requires, the generator call). The calls look the
# generators up when they run, so a generator replaced on this module is used.
_WHITE = ("white", (), lambda c: white_noise(c.length, c.seed))
_FGN = ("fgn", ("h",), lambda c: fgn(c.length, c.h, c.seed))
_LINEAR = ("linear", ("slope", "intercept"),
           lambda c: linear_trend(c.length, c.slope, c.intercept))
_POWER = ("power", ("beta",), lambda c: power_law_ranks(c.length, c.beta, c.noise, c.seed))
_KINDS = {
    "white": _WHITE,
    "white_noise": _WHITE,
    "fgn": _FGN,
    "linear": _LINEAR,
    "linear_trend": _LINEAR,
    "power": _POWER,
    "power_law_ranks": _POWER,
}


def _g12(x: float) -> float:
    """Round a float through 12 significant digits for deterministic JSON."""
    return float(f"{float(x):.12g}")


def _json(record: dict, indent: int | None = None) -> str:
    try:
        return json.dumps(record, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"non-finite value in JSON output: {exc}") from exc


def _manifest(command: str, config) -> str:
    return _json({"command": command, "config": asdict(config)}, indent=2)


def run_score(cfg: ScoreConfig, outdir: Path) -> None:
    query = Query.from_string(cfg.query)
    corpus = ingest_jsonl_path(cfg.corpus, query.terms)
    table = score_corpus(corpus, query)
    summary = _json({
        "n_documents": len(corpus),
        "n_terms": len(query.terms),
        "n_zero_score": int(table.zero_score.sum()),
    })
    manifest = _manifest("score", cfg)
    write_atomic(outdir / "scores.csv", table.to_csv())
    write_atomic(outdir / "summary.json", [summary])
    write_atomic(outdir / "manifest.json", [manifest])


def _load_sequence(cfg: AnalyzeConfig) -> np.ndarray:
    if (cfg.scores is None) == (cfg.series is None):
        raise click.UsageError("exactly one of --scores or --series is required")
    if cfg.series is not None:
        return read_series_csv(cfg.series)
    return mutual_sequence(
        RelevanceTable.from_csv(cfg.scores),
        ranked_by=Measure(cfg.ranked_by),
        read_off=Measure(cfg.read_off),
        include_zero_scores=cfg.include_zero_scores,
    )


def run_analyze(cfg: AnalyzeConfig, outdir: Path) -> None:
    manifest = _manifest("analyze", cfg)  # rejects a non-finite option before any work
    if not 0.0 <= cfg.trim <= MAX_TRIM:
        raise click.UsageError(f"--trim must be in [0, {MAX_TRIM}]")
    values = _load_sequence(cfg)
    summary: dict = {"n_values": int(values.size)}

    try:
        curve = dfa(values, windows=cfg.dfa_windows)
    except DegenerateSeriesError as exc:
        raise click.ClickException(f"dfa failed: {exc}") from exc
    summary["alpha"] = _g12(curve.alpha)
    summary["alpha_r2"] = _g12(curve.alpha_r2)

    try:
        hres = hurst_regression(values, windows=cfg.rs_windows)
    except DegenerateSeriesError as exc:
        raise click.ClickException(f"hurst_regression failed: {exc}") from exc
    summary["h_regression"] = _g12(hres.h_regression)
    summary["h_regression_r2"] = _g12(hres.h_r2)
    summary["fractal_dim"] = _g12(hres.fractal_dim)
    points, _ = hurst_pointwise(values)
    prefixes, h_pointwise = np.array(points, dtype=float).reshape(-1, 2).T

    # Return map needs coordinates in [0,1]; rank-map anything else.
    cdf_mapped = bool(values.min() < 0.0 or values.max() > 1.0)
    map_values = empirical_cdf_map(values) if cdf_mapped else values
    pts = poincare_map(map_values)
    occ = occupancy_stats(pts, cfg.grid)
    summary["poincare_cdf_mapped"] = cdf_mapped
    summary["occupied_cells"] = occ.occupied_cells
    summary["occupied_fraction"] = _g12(occ.occupied_fraction)
    summary["chi2_uniform"] = _g12(occ.chi2_uniform)

    try:
        zf = zipf_fit(np.sort(values)[::-1], trim_fraction=cfg.trim)
        summary["zipf_semilog_slope"] = _g12(zf.semilog_slope)
        summary["zipf_semilog_r2"] = _g12(zf.semilog_r2)
        summary["zipf_loglog_slope"] = _g12(zf.loglog_slope)
        summary["zipf_loglog_r2"] = _g12(zf.loglog_r2)
        summary["zipf_n_used"] = zf.n_used
    except RankStatsError as exc:
        summary["zipf_error"] = str(exc)

    summary_json = _json(summary)
    write_atomic(outdir / "sequence.csv", write_series_csv(values))
    write_atomic(outdir / "dfa.csv", curve.to_csv())
    write_atomic(outdir / "hurst_pointwise.csv",
                 format_table(("N", "h"), [prefixes, h_pointwise]))
    write_atomic(outdir / "poincare.csv", pts.to_csv())
    write_atomic(outdir / "summary.json", [summary_json])
    write_atomic(outdir / "manifest.json", [manifest])


def run_synth(cfg: SynthConfig, outdir: Path) -> None:
    if cfg.kind not in _KINDS:
        raise click.UsageError(f"unknown generator kind {cfg.kind!r}")
    name, required, generate = _KINDS[cfg.kind]
    if any(getattr(cfg, option) is None for option in required):
        options = " and ".join(f"--{option}" for option in required)
        raise click.UsageError(f"--kind {name} requires {options}")
    if cfg.length < 2:
        raise click.UsageError("length must be >= 2")
    if not 0 <= cfg.seed < 2**64:
        raise click.UsageError("seed must be an unsigned 64-bit integer")
    try:
        values = generate(cfg)
    except SynthError as exc:
        raise click.UsageError(str(exc)) from exc
    manifest = _manifest("synth", cfg)
    write_atomic(outdir / "series.csv", write_series_csv(values))
    write_atomic(outdir / "manifest.json", [manifest])


_RUNNERS = {
    "score": (ScoreConfig, run_score),
    "analyze": (AnalyzeConfig, run_analyze),
    "synth": (SynthConfig, run_synth),
}


def _out_option(fn):
    return click.option(
        "--out",
        envvar=OUT_ENV_VAR,
        default=".",
        show_default=True,
        help=f"Output directory (env {OUT_ENV_VAR} overrides the default).",
    )(fn)


def _run(runner, cfg, out) -> None:
    """Run a command; fracrank errors (all ValueError) and file errors exit 1 with their message."""
    try:
        runner(cfg, Path(out))
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc


def _config_from_manifest(config_cls, raw: dict):
    """The manifest's config as ``config_cls``, each value checked against its field's type."""
    for key in ("dfa_windows", "rs_windows"):
        if isinstance(raw.get(key), list):
            raw[key] = tuple(raw[key])
    for key, hint in typing.get_type_hints(config_cls).items():
        if key not in raw:
            continue
        value = raw[key]
        # "float | None" allows float and None; tuple[int, ...] checks as tuple.
        types = tuple(typing.get_origin(t) or t for t in typing.get_args(hint) or [hint])
        if float in types:
            types += (int,)
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            declared = config_cls.__annotations__[key]
            raise click.ClickException(
                f"bad manifest config: {key} = {value!r} is not {declared}"
            )
    try:
        return config_cls(**raw)
    except TypeError as exc:
        raise click.ClickException(f"bad manifest config: {exc}") from exc


@click.group()
def main():
    """Relevance scoring and fractal sequence analysis pipeline."""


@main.command()
@click.option("--corpus", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--query", required=True, help='Query terms, e.g. "alpha beta".')
@_out_option
def score(corpus, query, out):
    """Score a line-delimited JSON corpus against a query; writes scores.csv."""
    _run(run_score, ScoreConfig(corpus=corpus, query=query), out)


@main.command()
@click.option("--scores", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--series", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--ranked-by", type=click.Choice(["f", "q"]), default="q", show_default=True)
@click.option("--read-off", type=click.Choice(["f", "q"]), default="f", show_default=True)
@click.option("--trim", type=float, default=0.05, show_default=True)
@click.option("--grid", type=int, default=32, show_default=True)
@click.option("--include-zero-scores", is_flag=True, default=False)
@click.option("--dfa-windows", default=None, help="Comma-separated DFA window sizes.")
@click.option("--rs-windows", default=None, help="Comma-separated R/S block sizes.")
@_out_option
def analyze(scores, series, ranked_by, read_off, trim, grid,
            include_zero_scores, dfa_windows, rs_windows, out):
    """Run the full analysis bundle on a scores table or a bare series."""
    cfg = AnalyzeConfig(
        scores=scores,
        series=series,
        ranked_by=ranked_by,
        read_off=read_off,
        trim=trim,
        grid=grid,
        include_zero_scores=include_zero_scores,
        dfa_windows=_parse_windows(dfa_windows),
        rs_windows=_parse_windows(rs_windows),
    )
    _run(run_analyze, cfg, out)


def _parse_windows(text):
    if text is None:
        return None
    try:
        return tuple(int(t) for t in str(text).split(",") if t.strip())
    except ValueError as exc:
        raise click.UsageError(f"bad window list {text!r}") from exc


@main.command()
@click.option("--kind", required=True, help="white | fgn | linear | power (long names accepted).")
@click.option("--len", "length", required=True, type=int)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--h", type=float, default=None, help="Target Hurst index for fgn.")
@click.option("--beta", type=float, default=None, help="Power-law exponent.")
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--slope", type=float, default=None)
@click.option("--intercept", type=float, default=None)
@_out_option
def synth(kind, length, seed, h, beta, noise, slope, intercept, out):
    """Generate a deterministic synthetic series; writes series.csv."""
    cfg = SynthConfig(
        kind=kind, length=length, seed=seed, h=h,
        beta=beta, noise=noise, slope=slope, intercept=intercept,
    )
    _run(run_synth, cfg, out)


@main.command()
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@_out_option
def rerun(manifest, out):
    """Replay a previous run from its manifest.json; outputs are byte-identical."""
    try:
        record = json.loads(Path(manifest).read_text(encoding="utf-8"))
    except (ValueError, OSError) as exc:
        raise click.ClickException(f"cannot read manifest {manifest}: {exc}") from exc
    if not isinstance(record, dict) or not isinstance(record.get("config", {}), dict):
        raise click.ClickException("manifest must be a JSON object with a config object")
    command = record.get("command")
    if command not in _RUNNERS:
        raise click.ClickException(f"manifest has unknown command {command!r}")
    config_cls, runner = _RUNNERS[command]
    cfg = _config_from_manifest(config_cls, dict(record.get("config", {})))
    try:
        _run(runner, cfg, out)
    except click.UsageError as exc:
        # A runner's usage error here is a bad manifest value, not bad rerun arguments.
        raise click.ClickException(f"bad manifest config: {exc.message}") from exc


if __name__ == "__main__":
    main()
