"""tools/bench_pairs.py on two stub checkouts whose benchmark prints canned
results: the order of the runs, and the medians, quartiles and wins it
writes."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A perfbench/run.py that logs "<side> <workload> <seed>" and prints a run
# record and a result from canned.json beside it.
STUB = """
import argparse, json, os
parser = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(name)
args = parser.parse_args()
here = os.path.dirname(os.path.abspath(__file__))
with open(os.environ["BENCH_PAIRS_STUB_LOG"], "a") as fh:
    fh.write(f"{os.path.basename(os.path.dirname(here))} {args.workload} {args.seed}\\n")
with open(os.path.join(here, "canned.json")) as fh:
    canned = json.load(fh)[args.workload][args.seed]
print("a line before the record")
print(json.dumps({"record": {"machine": {"nproc": 2}, "setup_s_samples": [canned["setup"]]}}))
print(json.dumps({"correct": True, "attempted": 9, "failed": canned["failed"],
                  "metrics": {m: {"value": canned[m], "unit": "s"} for m in ("op_s", "rss")}}))
"""

# op_s per pair: on "a" the change wins pairs 0, 1 and 3; on "b" all four.
OP_S = {
    "parent": {"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 1.1, 1.2, 1.3]},
    "change": {"a": [0.5, 1.5, 3.5, 2.0], "b": [0.5, 0.5, 0.5, 0.5]},
}


def test_pairs_alternate_and_summaries_are_the_quartiles(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(STUB)
        canned = {w: {str(1000 + 100 * (k + 1) + i): {
            "op_s": op, "rss": 70.0, "setup": 0.1 * i, "failed": i % 2}
            for i, op in enumerate(OP_S[side][w])} for k, w in enumerate("ab")}
        (bench / "canned.json").write_text(json.dumps(canned))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "op_s", "better": "lower", "bound": 0.25},
                       {"name": "rss", "better": "lower", "bound": 0.05}]}))
    log = tmp_path / "calls.log"
    monkeypatch.setenv("BENCH_PAIRS_STUB_LOG", str(log))
    out = tmp_path / "BENCH_7.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
         str(tmp_path / "parent"), str(tmp_path / "change"), "--pr", "7", "--pairs", "4",
         "--seconds", "1", "--seed", "1000", "--claim", "b:op_s", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr

    order = [("parent", "change"), ("change", "parent")] * 2
    expected = [f"{side} {w} {1000 + 100 * (k + 1) + i}"
                for k, w in enumerate("ab") for i in range(4) for side in order[i]]
    assert log.read_text().splitlines() == expected

    doc = json.loads(out.read_text())
    assert doc["pr"] == 7 and doc["machine"] == {"nproc": 2}
    a = doc["workloads"]["a"]
    assert a["first_side"] == ["parent", "change", "parent", "change"]
    assert a["seeds"] == [1100, 1101, 1102, 1103]
    # Inclusive quartiles of [1, 2, 3, 4] and of [0.5, 1.5, 2.0, 3.5].
    for side, (q1, median, q3) in (("parent", (1.75, 2.5, 3.25)),
                                   ("change", (1.25, 1.75, 2.375))):
        got = a[side]["op_s"]
        assert (got["q1"], got["median"], got["q3"]) == (q1, median, q3)
        assert got["runs"] == OP_S[side]["a"]
    op_a, rss_a = a["comparison"]["op_s"], a["comparison"]["rss"]
    assert op_a["change_better_in_pairs"] == 3 and op_a["parent_quartile_distance"] == 1.5
    assert op_a["within_bound"] and not op_a["gain"]
    assert rss_a["change_better_in_pairs"] == 0 and rss_a["within_bound"]  # ties win nothing
    b = doc["workloads"]["b"]["comparison"]["op_s"]
    assert b["change_better_in_pairs"] == 4 and b["gain"]
    assert doc["claim"] == {"workload": "b", "metric": "op_s", **b}
    runs = a["runs"]["change"]
    assert [r["failed"] for r in runs] == [0, 1, 0, 1]
    assert [r["setup_s_samples"] for r in runs] == [[0.0], [0.1], [0.2], [0.30000000000000004]]
    assert all(r["correct"] for r in runs)
