"""Time fracrank's table writer against a "%.12g" oracle, in process, and check
that both give the same bytes.

    python3 scripts/table_speed.py --length 1048576 --seed 7

Four tables are formatted: ``write_series_csv`` of an fGn series (H 0.75),
the return map ``poincare_map(empirical_cdf_map(x)).to_csv()`` of that series,
one column of standard normal values times 10^U(-300, 300), whose values take
every decimal exponent, and a scores-shaped table of ids ``d0``, ``d1``, ...
(one of them 65,536 characters long) beside the fGn and CDF values. Each is
timed as the text of all its chunks. The oracle formats the same values with
one ``%`` over a repeated "%.12g" format, and the scores table with one
f-string per row. The script exits 1 if any table's bytes differ from the
oracle's.
Times are the median of ``--repeat`` runs, alternating writer and oracle.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from fracrank.rankstats import empirical_cdf_map, poincare_map
from fracrank.synth import fgn, write_series_csv
from fracrank.table import format_table


def oracle_column(values: np.ndarray) -> str:
    return "value\n" + ("%.12g\n" * len(values)) % tuple(values.tolist())


def oracle_pairs(values: np.ndarray) -> str:
    cells = (("%.12g\n" * len(values)) % tuple(values.tolist())).splitlines()
    return "x,y\n" + "\n".join(map(",".join, zip(cells[:-1], cells[1:]))) + "\n"


def oracle_scores(ids: list[str], x: np.ndarray, cdf: np.ndarray) -> str:
    return "id,x,cdf\n" + "".join([f"{t},{a:.12g},{b:.12g}\n"
                                   for t, a, b in zip(ids, x.tolist(), cdf.tolist())])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--length", type=int, default=1 << 20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    x = fgn(args.length, 0.75, args.seed)
    cdf = empirical_cdf_map(x)
    rng = np.random.default_rng(args.seed)
    wide = rng.standard_normal(args.length) * 10.0 ** rng.uniform(-300, 300, args.length)
    ids = [f"d{i}" for i in range(args.length)]
    ids[args.length // 2] = "d".ljust(1 << 16, "x")
    tables = {
        "fgn column": (lambda: "".join(write_series_csv(x)), lambda: oracle_column(x)),
        "cdf return map": (lambda: "".join(poincare_map(cdf).to_csv()), lambda: oracle_pairs(cdf)),
        "wide column": (lambda: "".join(write_series_csv(wide)), lambda: oracle_column(wide)),
        "scores table": (lambda: "".join(format_table(("id", "x", "cdf"), [ids, x, cdf])),
                         lambda: oracle_scores(ids, x, cdf)),
    }
    print(f"length {args.length}, seed {args.seed}, median of {args.repeat}")
    print(f"{'table':<16}{'writer ms':>11}{'oracle ms':>11}{'speed-up':>10}")
    same = True
    for name, (writer, oracle) in tables.items():
        sides = {"writer": writer, "oracle": oracle}
        times = {"writer": [], "oracle": []}
        for i in range(args.repeat):
            texts = {}
            for side in sorted(sides, reverse=i % 2 == 1):  # alternate which runs first
                start = time.perf_counter()
                texts[side] = sides[side]()
                times[side].append(time.perf_counter() - start)
            same &= texts["writer"] == texts["oracle"]
        ms = {side: 1e3 * statistics.median(t) for side, t in times.items()}
        print(f"{name:<16}{ms['writer']:>11.1f}{ms['oracle']:>11.1f}"
              f"{ms['oracle'] / ms['writer']:>9.2f}x")
    if not same:
        print("error: the writer's bytes differ from the oracle's", file=sys.stderr)
        return 1
    print("bytes identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
