import json
import os
import subprocess
import sys
from pathlib import Path

import hetconv

REPO = Path(__file__).resolve().parents[1]


def test_depth_sweep_writes_one_row_per_depth(tmp_path):
    out = tmp_path / "sweep.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hetconv.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "depth_sweep.py"), "--authors", "60",
         "--min-depth", "2", "--max-depth", "3", "--max-epochs", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert [r["depth"] for r in rows] == [2, 3]
    for row in rows:
        assert 1 <= row["epochs"] <= 3
        assert 0.0 <= row["micro_f1"] <= 1.0 and 0.0 <= row["macro_f1"] <= 1.0
        assert len(row["per_class_f1"]) == 4
    # the printed table has the same rows
    table = proc.stdout.splitlines()[2:]
    assert [int(line.split()[0]) for line in table] == [2, 3]
