"""Report how far the values of two source checkouts move apart.

    python tools/csv_moves.py PARENT_DIR CHANGE_DIR

Each checkout runs the standard value set in its own Python process, with
``PYTHONPATH=<dir>/src`` and sweeps at ``--threads`` (default 1):

* every grid figure at ``--grid`` (default 9) points per axis;
* fig5 and fig6b at ``--samples`` (default 200) samples, seed 3;
* ``measure_state`` rows (``cli.measure_rows``) of the specs in ``SPECS``,
  with the measure ids in ``MEASURE_IDS``.

For each figure or spec and each measure it prints the rows whose CSV text
moved, the largest absolute and relative change of ``value``, and every
status change; a block whose CSV bytes are identical prints as such.  The
exit status is 0 when every block is identical, else 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

GRID_FIGURES = ("fig2a", "fig2b", "fig2cd", "fig2ef", "fig3", "fig4", "fig6a", "fig6cd")
SAMPLED_FIGURES = ("fig5", "fig6b")
SAMPLE_SEED = 3

#: name -> (family, params, cutoff, eta), as ``states.StateSpec`` takes them.
SPECS = {
    "ecs-lossy": ("ecs", {"gamma": 1.0}, 30, 0.7),
    "ecs-complex": ("ecs", {"gamma": 0.3 + 0.5j}, None, 0.6),
    "tmsv-lossy": ("tmsv", {"r": 0.6}, 30, 0.9),
    "cv_werner": ("cv_werner", {"f": 0.4, "r": 0.2}, 12, None),
    "pnes-lossy": ("pnes", {"coeffs": [0.8, 0.36j, 0.48]}, 30, 0.8),
    "photon_correlated": ("photon_correlated", {"nbar": 0.5}, 20, None),
}

MEASURE_IDS = ("vn renyi:0.5 renyi:2 sandwiched:1.5 sandwiched:0.5 hs tr bures delta:vn "
               "delta:renyi:2 delta:hs delta:tr delta:bures ng:tr ng:fid ng:lb1 ng:lb2").split()


def emit(grid, samples, threads):
    """The CSV text of every block of the value set, keyed by block name,
    from the ``ngcorr`` on ``sys.path``."""
    from ngcorr.cli import measure_rows, write_csv
    from ngcorr.figures import run_figure
    from ngcorr.states import StateSpec

    def text(rows):
        out = io.StringIO()
        write_csv(rows, out)
        return out.getvalue()

    blocks = {fig: text(run_figure(fig, {"grid": grid}, threads=threads))
              for fig in GRID_FIGURES}
    blocks.update((fig, text(run_figure(fig, {"samples": samples, "seed": SAMPLE_SEED},
                                        threads=threads)))
                  for fig in SAMPLED_FIGURES)
    blocks.update((name, text(measure_rows(StateSpec(family, params, cutoff=cutoff, eta=eta),
                                           MEASURE_IDS)))
                  for name, (family, params, cutoff, eta) in SPECS.items())
    return blocks


def run_checkout(root, grid, samples, threads):
    """``emit`` in a fresh process on the checkout at ``root``."""
    src = Path(root).resolve() / "src"
    if not (src / "ngcorr").is_dir():
        raise SystemExit(f"{root}: no src/ngcorr here")
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [sys.executable, __file__, "--emit", "--grid", str(grid), "--samples",
            str(samples), "--threads", str(threads)]
    out = subprocess.run(args, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    found, blocks = json.loads(out)
    if Path(found).resolve() != src / "ngcorr":
        raise SystemExit(f"{root}: imported ngcorr from {found}, not from {src}")
    return blocks


def compare(old, new):
    """Lines of the report on one block's CSV texts, per measure."""
    if old == new:
        return ["  identical"]
    old_rows, new_rows = (list(csv.DictReader(io.StringIO(t))) for t in (old, new))
    if len(old_rows) != len(new_rows):
        return [f"  row count {len(old_rows)} -> {len(new_rows)}"]
    lines = []
    for name in dict.fromkeys(row["measure"] for row in old_rows):
        pairs = [(a, b) for a, b in zip(old_rows, new_rows) if a["measure"] == name]
        moved = [(a, b) for a, b in pairs if a != b]
        if not moved:
            lines.append(f"  {name}: identical")
            continue
        abs_d = rel_d = 0.0
        statuses = Counter()
        others = sorted({key for a, b in moved for key in a
                         if key not in ("value", "status") and a[key] != b[key]})
        for a, b in moved:
            va, vb = float(a["value"]), float(b["value"])
            if va != vb and math.isfinite(va) and math.isfinite(vb):
                abs_d = max(abs_d, abs(vb - va))
                rel_d = max(rel_d, abs(vb - va) / max(abs(va), abs(vb)))
            if a["status"] != b["status"]:
                statuses[f"{a['status']}->{b['status']}"] += 1
        status = ", ".join(f"{k} x{n}" for k, n in statuses.items()) or "no status change"
        also = f", {' and '.join(others)} moved too" if others else ""
        lines.append(f"  {name}: {len(moved)}/{len(pairs)} rows moved, max |dvalue| "
                     f"{abs_d:.2e} (relative {rel_d:.2e}), {status}{also}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="the parent's source checkout")
    parser.add_argument("change", nargs="?", help="the change's source checkout")
    parser.add_argument("--grid", type=int, default=9, help="grid figures' points per axis")
    parser.add_argument("--samples", type=int, default=200, help="fig5 and fig6b samples")
    parser.add_argument("--threads", type=int, default=1, help="sweep threads")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        import ngcorr

        blocks = emit(args.grid, args.samples, args.threads)
        json.dump([str(Path(ngcorr.__file__).parent), blocks], sys.stdout)
        return 0
    if not (args.parent and args.change):
        parser.error("give the parent and the change checkouts")
    old, new = (run_checkout(root, args.grid, args.samples, args.threads)
                for root in (args.parent, args.change))
    moved = 0
    for name in old:
        lines = compare(old[name], new[name])
        moved += lines != ["  identical"]
        print(name)
        print("\n".join(lines))
    print(f"{moved} of {len(old)} blocks moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
