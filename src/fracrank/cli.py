"""Batch CLI: score a corpus, analyze a sequence, generate synthetic series.

Every run writes a ``manifest.json`` echoing the fully resolved configuration;
``fracrank rerun MANIFEST --out DIR`` reproduces the run byte-for-byte. A run
computes everything before it writes its first file, so a failed run writes
nothing. Each file write is atomic (temp file + rename); tables use the one
CSV dialect of ``fracrank.table`` and JSON rejects non-finite numbers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from fracrank.corpus import Query, ingest_jsonl_path
from fracrank.fractal import (
    DegenerateSeriesError,
    dfa,
    hurst_regression,
)
from fracrank.rankstats import (
    RankStatsError,
    empirical_cdf_map,
    occupancy_stats,
    poincare_map,
    zipf_fit,
)
from fracrank.relevance import Measure, RelevanceTable, mutual_sequence, score_corpus
from fracrank.synth import (
    GeneratorSpec,
    SynthError,
    generate,
    read_series_csv,
    write_series_csv,
)
from fracrank.table import write_atomic

OUT_ENV_VAR = "FRACRANK_OUT"

_KIND_ALIASES = {
    "white": "white_noise",
    "white_noise": "white_noise",
    "fgn": "fgn",
    "linear": "linear_trend",
    "linear_trend": "linear_trend",
    "power": "power_law_ranks",
    "power_law_ranks": "power_law_ranks",
}


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
    corpus = ingest_jsonl_path(cfg.corpus)
    query = Query.from_string(cfg.query)
    table = score_corpus(corpus, query)
    summary = _json({
        "n_documents": corpus.size,
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
    seq = mutual_sequence(
        RelevanceTable.from_csv(cfg.scores),
        ranked_by=Measure(cfg.ranked_by),
        read_off=Measure(cfg.read_off),
        include_zero_scores=cfg.include_zero_scores,
    )
    return seq.values


def run_analyze(cfg: AnalyzeConfig, outdir: Path) -> None:
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
    manifest = _manifest("analyze", cfg)
    write_atomic(outdir / "sequence.csv", write_series_csv(values))
    write_atomic(outdir / "dfa.csv", curve.to_csv())
    write_atomic(outdir / "hurst_pointwise.csv", hres.pointwise_csv())
    write_atomic(outdir / "poincare.csv", pts.to_csv())
    write_atomic(outdir / "summary.json", [summary_json])
    write_atomic(outdir / "manifest.json", [manifest])


def _spec_from_config(cfg: SynthConfig) -> GeneratorSpec:
    kind = _KIND_ALIASES.get(cfg.kind)
    if kind is None:
        raise click.UsageError(f"unknown generator kind {cfg.kind!r}")
    params: dict = {}
    if kind == "fgn":
        if cfg.h is None:
            raise click.UsageError("--kind fgn requires --h")
        params["target_h"] = cfg.h
    elif kind == "linear_trend":
        if cfg.slope is None or cfg.intercept is None:
            raise click.UsageError("--kind linear requires --slope and --intercept")
        params["slope"] = cfg.slope
        params["intercept"] = cfg.intercept
    elif kind == "power_law_ranks":
        if cfg.beta is None:
            raise click.UsageError("--kind power requires --beta")
        params["beta"] = cfg.beta
        params["noise"] = cfg.noise
    try:
        return GeneratorSpec(kind=kind, length=cfg.length, seed=cfg.seed, params=params)
    except SynthError as exc:
        raise click.UsageError(str(exc)) from exc


def run_synth(cfg: SynthConfig, outdir: Path) -> None:
    spec = _spec_from_config(cfg)
    try:
        values = generate(spec)
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
    """Run a command; every fracrank error is a ValueError and exits 1 with its message."""
    try:
        runner(cfg, Path(out))
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc


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
    record = json.loads(Path(manifest).read_text(encoding="utf-8"))
    command = record.get("command")
    if command not in _RUNNERS:
        raise click.ClickException(f"manifest has unknown command {command!r}")
    config_cls, runner = _RUNNERS[command]
    raw = dict(record.get("config", {}))
    for key in ("dfa_windows", "rs_windows"):
        if raw.get(key) is not None:
            raw[key] = tuple(raw[key])
    try:
        cfg = config_cls(**raw)
    except TypeError as exc:
        raise click.ClickException(f"bad manifest config: {exc}") from exc
    _run(runner, cfg, out)


if __name__ == "__main__":
    main()
