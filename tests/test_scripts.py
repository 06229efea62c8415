import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "script,args,csvs",
    [
        ("region_sweep.py", ["--n", "20"], ["totals.csv", "sensitivity.csv", "ppv_bins.csv"]),
        ("kscan_demo.py", [], ["equal.csv", "skew-low.csv", "near-half.csv"]),
    ],
    ids=["region_sweep", "kscan_demo"],
)
def test_script_writes_its_csvs(script, args, csvs, tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(csvs)
    for name in csvs:
        assert len((tmp_path / name).read_text().splitlines()) > 1  # header plus rows
