"""Hash the output files of the reference configs of a BENCH_*.json.

    python3 tools/output_hashes.py BENCH_30.json --src src

Reads ``outputs.configs`` of the given file (name -> {"config": text, ...}),
runs each config through ``darksteady.cli.main`` imported from the given
``src/`` directory, one after another in this process, and prints one JSON
object to stdout:
``{name: {"data.csv": sha256[:12], "summary.txt": sha256[:12]}}``, with the
exit code in place of the hashes for a run that failed.  Run it once with
the ``src/`` of each side to compare two versions of the package.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

_FILES = ("data.csv", "summary.txt")


def _hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bench", help="a BENCH_*.json with outputs.configs")
    parser.add_argument("--src", required=True, help="the src/ directory to import darksteady from")
    args = parser.parse_args(argv)
    with open(args.bench, encoding="utf-8") as fh:
        configs = json.load(fh)["outputs"]["configs"]
    sys.path.insert(0, os.path.abspath(args.src))
    from darksteady import cli
    from darksteady.config import parse_config

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(configs):
            text = configs[name]["config"]
            cfg_path, out_dir = os.path.join(tmp, f"{i}.ini"), os.path.join(tmp, f"{i}")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main([parse_config(text).experiment, "--config", cfg_path,
                                 "--out", out_dir])
            hashes[name] = code or {f: _hash(os.path.join(out_dir, f)) for f in _FILES}
    json.dump(hashes, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
