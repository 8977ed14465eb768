"""The value-move report between two checkouts (tools/csv_moves.py)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "csv_moves.py"
sys.path.insert(0, str(TOOL.parent))

from csv_moves import compare  # noqa: E402


def test_the_checkout_against_itself_moves_nothing():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--grid", "2",
                          "--samples", "2"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("0 of 16 blocks moved\n")


def test_a_moved_row_is_reported_with_its_change_and_status():
    head = "measure,value,cutoff,status\n"
    old = head + "ng_tr,0.5,20,ok\nng_tr,0.25,20,ok\ndelta_tr,1,20,ok\n"
    new = head + "ng_tr,0.5,20,ok\nng_tr,nan,20,flagged\ndelta_tr,1.5,30,ok\n"
    assert compare(old, old) == ["  identical"]
    assert compare(old, new) == [
        "  ng_tr: 1/2 rows moved, max |dvalue| 0.00e+00 (relative 0.00e+00), ok->flagged x1",
        "  delta_tr: 1/1 rows moved, max |dvalue| 5.00e-01 (relative 3.33e-01), "
        "no status change, cutoff moved too",
    ]
