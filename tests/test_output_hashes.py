"""tools/output_hashes.py: the output hashes of reference configs."""

import hashlib
import json
import os
import subprocess
import sys

from darksteady import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_output_hashes_of_the_steady_config(tmp_path):
    """Run on a BENCH file with one config, the script prints the hashes
    of the files that the CLI writes for it."""
    configs = {"steady": {"config": "experiment = steady\n"}}
    bench = tmp_path / "BENCH.json"
    bench.write_text(json.dumps({"outputs": {"configs": configs}}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "output_hashes.py"), str(bench),
         "--src", src],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (tmp_path / "steady.ini").write_text(configs["steady"]["config"])
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", str(tmp_path / "steady.ini"), "--out", str(out)]) == 0
    expected = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:12]
                for name in ("data.csv", "summary.txt")}
    assert json.loads(proc.stdout) == {"steady": expected}
