"""Batch CLI: score a corpus, analyze a sequence, generate synthetic series.

Every run writes a ``manifest.json`` echoing the fully resolved options;
``fracrank rerun MANIFEST --out DIR`` turns them back into the command line
they record and parses it with the command's own options, so a manifest is
accepted exactly when that command line is, and the run is reproduced
byte-for-byte. ``_run`` opens one ``fracrank.table.Bundle`` on ``--out``
before the input is read: each file goes to a temp file beside its target, all
renamed into place only once every one is written, so a failed or interrupted
run (SIGTERM included) leaves ``--out`` as it was.
``analyze`` builds the return map first and then hands both of its large
tables, ``sequence.csv`` and ``poincare.csv``, to one forked writer child
(POSIX only), which writes them while the estimators run, as formatting them
costs about as much as DFA and R/S. Tables use the one CSV dialect of
``fracrank.table`` and JSON rejects non-finite numbers.
"""

from __future__ import annotations

import inspect
import json
import math
import signal
import sys
from pathlib import Path

import click
import numpy as np

from fracrank.corpus import CorpusError, Query, ingest_jsonl_path
from fracrank.fractal import (
    DegenerateSeriesError,
    dfa,
    hurst_pointwise,
    hurst_regression,
)
from fracrank.rankstats import (
    MAX_GRID_CELLS,
    MAX_TRIM,
    RankStatsError,
    empirical_cdf_map,
    occupancy_stats,
    poincare_map,
    zipf_fit,
)
from fracrank.relevance import MEASURES, RelevanceTable, mutual_sequence, score_corpus
from fracrank.synth import (
    SynthError,
    fgn,
    linear_trend,
    power_law_ranks,
    read_series_csv,
    white_noise,
    write_series_csv,
)
from fracrank.table import Bundle, TableError, as_written, format_table, require_regular_file

OUT_ENV_VAR = "FRACRANK_OUT"


# Every --kind spelling names its generator; messages name a kind by its first
# spelling. A kind reads the options named by its generator's parameters after
# length, and requires those whose click option has no default. The generator is
# looked up on this module when the command runs, so a replacement is used.
_KINDS = {
    "white": "white_noise",
    "white_noise": "white_noise",
    "fgn": "fgn",
    "linear": "linear_trend",
    "linear_trend": "linear_trend",
    "power": "power_law_ranks",
    "power_law_ranks": "power_law_ranks",
}
_READS = {g: tuple(inspect.signature(globals()[g]).parameters)[1:] for g in _KINDS.values()}


def _json(record: dict, indent: int | None = None) -> str:
    try:
        return json.dumps(record, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"non-finite value in JSON output: {exc}") from exc


def _manifest(command: str, options: dict) -> str:
    """The run's manifest; a non-finite option is a usage error naming ``--<key>``."""
    for key, value in options.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise click.BadParameter(f"{value} is not a finite number", param_hint=f"'--{key}'")
    return _json({"command": command, "config": options}, indent=2)


def run_score(options: dict, bundle: Bundle) -> None:
    query = Query.from_string(options["query"])
    corpus = ingest_jsonl_path(options["corpus"], query.terms)
    table = score_corpus(corpus, query)
    bundle.write("scores.csv", table.to_csv())
    bundle.write("summary.json", [_json({
        "n_documents": len(corpus),
        "n_terms": len(query.terms),
        "n_zero_score": int(table.zero_score.sum()),
    })])


def _load_sequence(options: dict) -> np.ndarray:
    if (options["scores"] is None) == (options["series"] is None):
        raise click.UsageError("exactly one of --scores or --series is required")
    if options["series"] is not None:
        return read_series_csv(options["series"])
    return mutual_sequence(
        RelevanceTable.from_csv(options["scores"]),
        ranked_by=options["ranked_by"],
        read_off=options["read_off"],
        include_zero_scores=options["include_zero_scores"],
    )


def _estimate(name: str, estimator, values: np.ndarray, windows):
    """Run a scaling estimator; a degenerate series exits 1 as "<name> failed: ..."."""
    try:
        return estimator(values, windows=windows)
    except DegenerateSeriesError as exc:
        raise click.ClickException(f"{name} failed: {exc}") from exc


def _summary_fields(result, prefix: str = "") -> dict:
    """A result's scalar fields as ``summary.json`` entries, each float as a table holds it."""
    return {prefix + key: as_written(value) if isinstance(value, float) else value
            for key, value in vars(result).items() if np.ndim(value) == 0}


def run_analyze(options: dict, bundle: Bundle) -> None:
    values = _load_sequence(options)
    # The return map needs coordinates in [0,1]; rank-map anything else.
    cdf_mapped = bool(values.min() < 0.0 or values.max() > 1.0)
    pts = poincare_map(empirical_cdf_map(values) if cdf_mapped else values)
    occ = occupancy_stats(pts, options["grid"])
    bundle.write_in_child({"sequence.csv": write_series_csv(values), "poincare.csv": pts.to_csv()})
    curve = _estimate("dfa", dfa, values, options["dfa_windows"])
    hres = _estimate("hurst_regression", hurst_regression, values, options["rs_windows"])
    points, _ = hurst_pointwise(values)
    summary = {"n_values": int(values.size), "poincare_cdf_mapped": cdf_mapped,
               **_summary_fields(curve), **_summary_fields(hres), **_summary_fields(occ)}
    try:
        summary.update(_summary_fields(zipf_fit(values, trim_fraction=options["trim"]), "zipf_"))
    except RankStatsError as exc:
        summary["zipf_error"] = str(exc)
    bundle.write("dfa.csv", curve.to_csv())
    bundle.write("hurst_pointwise.csv", format_table(("N", "h"), points.T))
    bundle.write("summary.json", [_json(summary)])


def run_synth(options: dict, bundle: Bundle) -> None:
    generator = _KINDS[options["kind"]]
    name = next(kind for kind, g in _KINDS.items() if g == generator)
    reads = _READS[generator]
    defaults = {param.name: param.default for param in synth.params}
    required = [option for option in reads if defaults[option] is None]
    if any(options[option] is None for option in required):
        flags = " and ".join(f"--{option}" for option in required)
        raise click.UsageError(f"--kind {name} requires {flags}")
    # An option that this kind does not read must be left out or at its default
    # (as --noise 0.0 is in every manifest), so a manifest records no setting
    # that had no effect. --len is read by every kind.
    for option in dict.fromkeys(sum(_READS.values(), ())):
        if option not in reads and options[option] not in (None, defaults[option]):
            raise click.UsageError(f"--kind {name} does not read --{option}")
    overflow = click.UsageError(f"--kind {name} overflows: the series has a non-finite value")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            values = globals()[generator](options["length"], *(options[o] for o in reads))
    except SynthError as exc:
        raise click.UsageError(str(exc)) from exc
    except OverflowError as exc:  # raised by math.exp (power), where numpy gives an inf
        raise overflow from exc
    if not np.isfinite(values).all():
        raise overflow
    bundle.write("series.csv", write_series_csv(values))


_out_option = click.option(
    "--out",
    envvar=OUT_ENV_VAR,
    default=".",
    show_default=True,
    help=f"Output directory (env {OUT_ENV_VAR} overrides the default).",
)


def _run(runner, options, out) -> None:
    """Run the current command's ``runner`` into one ``Bundle`` on ``out``, then add the
    manifest; fracrank errors (all ValueError), file errors and a failed allocation
    exit 1 with their message, and SIGTERM exits 128 + 15 once the bundle is undone."""
    # A non-finite option exits 2 here, before --out is made or the input read.
    manifest = _manifest(click.get_current_context().command.name, options)
    # SIGTERM's default action would skip the Bundle's cleanup; as SystemExit it
    # unwinds the with block. The handler is restored for a caller in the same
    # process; only the main thread may set one, so a run in another goes without.
    try:
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    except ValueError:
        previous = None
    try:
        with Bundle(out) as bundle:
            runner(options, bundle)
            bundle.write("manifest.json", [manifest])
    except (ValueError, OSError, MemoryError) as exc:
        raise click.ClickException(str(exc)) from exc
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _command_line(command: click.Command, config: dict) -> list[str]:
    """The command line that a manifest's config records, for the command's own parser.

    null leaves an option out, a flag is given when its value is true, a list is
    comma-joined, and any other string or number is passed as ``--opt=text``.
    """
    params = {p.name: p for p in command.params if p.name != "out"}
    args = []
    for key, value in config.items():
        if key not in params:
            raise click.UsageError(f"unknown field {key!r}")
        flag = params[key].opts[0]
        if isinstance(value, dict) or (isinstance(value, bool) and not params[key].is_flag):
            raise click.UsageError(f"{key} = {json.dumps(value)} is not a value for {flag}")
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if value is True:
            args.append(flag)
        elif value is not None and value is not False:
            args.append(f"{flag}={value}")
    return args


@click.group()
def main():
    """Relevance scoring and fractal sequence analysis pipeline."""


def _windows(ctx, param, text):
    """Parse a comma-separated window list into a tuple of ints that fit a C long."""
    if text is None:
        return None
    try:
        return tuple(np.array([int(t) for t in text.split(",") if t.strip()], dtype=int).tolist())
    except (ValueError, OverflowError) as exc:
        raise click.BadParameter(f"bad window list {text!r}") from exc


def _query(ctx, param, text):
    """Check that the query holds a term; the text is kept as given, as manifests record it."""
    try:
        Query.from_string(text)
    except CorpusError as exc:
        raise click.BadParameter(str(exc)) from exc
    return text


@main.command()
@click.option("--corpus", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--query", required=True, callback=_query, help='Query terms, e.g. "alpha beta".')
@_out_option
def score(out, **options):
    """Score a line-delimited JSON corpus against a query; writes scores.csv."""
    _run(run_score, options, out)


@main.command()
@click.option("--scores", type=click.Path(exists=True, dir_okay=False))
@click.option("--series", type=click.Path(exists=True, dir_okay=False))
@click.option("--ranked-by", type=click.Choice(MEASURES), default="q", show_default=True)
@click.option("--read-off", type=click.Choice(MEASURES), default="f", show_default=True)
@click.option("--trim", type=click.FloatRange(0.0, MAX_TRIM), default=0.05, show_default=True)
@click.option("--grid", type=click.IntRange(1, math.isqrt(MAX_GRID_CELLS)), default=32,
              show_default=True)
@click.option("--include-zero-scores", is_flag=True)
@click.option("--dfa-windows", callback=_windows, help="Comma-separated DFA window sizes.")
@click.option("--rs-windows", callback=_windows, help="Comma-separated R/S block sizes.")
@_out_option
def analyze(out, **options):
    """Run the full analysis bundle on a scores table or a bare series."""
    _run(run_analyze, options, out)


@main.command()
@click.option("--kind", required=True, type=click.Choice(list(_KINDS)))
@click.option("--len", "length", required=True, type=click.IntRange(min=2))
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True)
@click.option("--h", type=click.FloatRange(0, 1, min_open=True, max_open=True), default=None,
              help="Target Hurst index for fgn.")
@click.option("--beta", type=click.FloatRange(min=0, min_open=True), default=None,
              help="Power-law exponent.")
@click.option("--noise", type=click.FloatRange(min=0), default=0.0, show_default=True)
@click.option("--slope", type=float, default=None)
@click.option("--intercept", type=float, default=None)
@_out_option
def synth(out, **options):
    """Generate a deterministic synthetic series; writes series.csv."""
    _run(run_synth, options, out)


@main.command()
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@_out_option
def rerun(manifest, out):
    """Replay a previous run from its manifest.json; outputs are byte-identical."""
    try:
        require_regular_file(manifest, "a manifest")
        record = json.loads(Path(manifest).read_text(encoding="utf-8"))
    except TableError as exc:
        raise click.ClickException(str(exc)) from exc
    except (ValueError, OSError) as exc:
        raise click.ClickException(f"cannot read manifest {manifest}: {exc}") from exc
    if not isinstance(record, dict) or not isinstance(record.get("config", {}), dict):
        raise click.ClickException("manifest must be a JSON object with a config object")
    command = record.get("command")
    if command not in ("score", "analyze", "synth"):
        raise click.ClickException(f"manifest has unknown command {command!r}")
    cmd = main.commands[command]
    try:
        args = _command_line(cmd, record.get("config", {})) + [f"--out={out}"]
        with cmd.make_context(command, args) as ctx:
            cmd.invoke(ctx)
    except click.UsageError as exc:
        # Every usage error here is a bad manifest value, not bad rerun arguments.
        raise click.ClickException(f"bad manifest config: {exc.format_message()}") from exc


if __name__ == "__main__":
    main()
