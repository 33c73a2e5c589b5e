"""sha256 of the CSV of every product config: the seven golden configs and the
seeds 1-3 batches of the four benchmark workloads at 3 units (628 configs),
each run through `atomfield.cli.main`.  One `sha256  name  exit-code` line per
config; two source trees write byte-identical CSVs exactly when they print the
same lines.

    python tests/csv_digests.py [--src DIR] > digests.txt

`--src DIR` imports `atomfield` from DIR (default: this checkout's `src`), so
another commit can be digested from a `git archive` copy and the two outputs
compared with `diff`.  The configs come from this checkout.  No bytecode is
written: `.pyc` files left in a copy change the timing of its next import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS, UNITS = (1, 2, 3), 3


def golden_configs() -> list[tuple[str, str]]:
    """(name, text) of each golden config."""
    return [
        (f"golden/{path.stem}", path.read_text())
        for path in sorted((ROOT / "tests" / "golden").glob("*.cfg"))
    ]


def workload_configs() -> list[tuple[str, str]]:
    """(name, text) of each config of the seeds' benchmark batches."""
    from perfbench import workloads

    return [
        (f"{workload}/{seed}/{i}", config.text)
        for workload in workloads.WORKLOADS
        for seed in SEEDS
        for i, config in enumerate(workloads.batch(workload, seed, UNITS))
    ]


def digests(configs: list[tuple[str, str]], work: Path):
    """Yield (sha256 of the CSV, name, exit code) of each (name, text) config,
    run in the directory `work`; a config that writes no CSV reads "-"."""
    from atomfield import cli

    cfg, csv = work / "config.cfg", work / "out.csv"
    for name, text in configs:
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):  # the "wrote N rows" line
            code = cli.main(["run", str(cfg), "--out", str(csv)])
        digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else "-"
        csv.unlink(missing_ok=True)
        yield digest, name, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every product config's CSV")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory that holds the atomfield package"
    )
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for digest, name, code in digests(golden_configs() + workload_configs(), Path(work)):
            print(f"{digest}  {name}  {code}", flush=True)
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
