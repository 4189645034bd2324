"""Self-tests of the benchmark: run with ``python -m pytest perfbench``
from the repository root."""

import json
import re
import subprocess
import sys

import pytest

import run
from reference import Checker
from workloads import CYCLE_SECONDS, Request, stream

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = [
    Request(("count", "10"), 0, "count", ("all", 10)),
    Request(("count", "0", "--alphabet", "upto:3"), 0, "count", ("upto:3", 0)),
    Request(("count", "40", "--alphabet", "1,2x2,5", "--method", "det"), 0, "count", ("1,2x2,5", 40)),
    Request(("count", "9", "--alphabet", "1x2,3", "--method", "brute"), 0, "count", ("1x2,3", 9)),
    Request(("weak", "30", "3", "--alphabet", "atleast:2"), 0, "weak", ("atleast:2", 30, 3)),
    Request(("weak", "30", "3", "--alphabet", "upto:2", "--method", "closed"), 0, "weak",
            ("upto:2", 30, 3)),
    Request(("weak", "25", "2", "--alphabet", "1x2,3", "--method", "minors"), 0, "weak",
            ("1x2,3", 25, 2)),
    Request(("weak", "8", "2", "--method", "brute"), 0, "weak", ("all", 8, 2)),
    Request(("matrix", "12", "--alphabet", "all", "--charpoly"), 0, "charpoly", ("all", 12)),
    Request(("matrix", "9", "--alphabet", "upto:3", "--minorsum", "4"), 0, "minorsum",
            ("upto:3", 9, 4)),
    Request(("table", "--alphabet", "upto:3", "--k", "2", "--n-max", "15"), 0, "table_k",
            ("upto:3", 2, 15)),
    Request(("table", "--alphabet", "atleast:2", "--bfile", "--n-max", "30"), 0, "bfile", ("atleast:2", 30)),
    Request(("verify", "--identity", "thm8", "--max-n", "5", "--max-k", "2"), 0, "verify",
            ("thm8", 5, 2, False)),
    Request(("verify", "--identity", "all", "--max-n", "5", "--max-k", "1", "--json"), 1, "verify",
            ("all", 5, 1, True)),
    Request(("count", "30", "--method", "brute"), 3, "refusal", ()),
]


@pytest.fixture(scope="module")
def responses():
    env = run.child_env()
    return [run.spawn([sys.executable, "-m", "compcount", *r.argv], env) for r in SMALL]


@pytest.mark.parametrize("workload", sorted(CYCLE_SECONDS))
def test_generator_is_deterministic_for_a_seed(workload):
    assert stream(workload, 11, 1) == stream(workload, 11, 1)
    assert stream(workload, 11, 1) != stream(workload, 12, 1)


def test_checker_accepts_compcount_output_on_small_inputs(responses):
    checker = Checker()
    for request, response in zip(SMALL, responses):
        assert run.judge(request, response, checker) is None, request.label()


def _value_digit_positions(text):
    """Offsets of digits that belong to printed values, not to comments,
    report labels or JSON notes."""
    if text.startswith("{"):
        return [m.start(2) for m in re.finditer(r'"(n|k|lhs|rhs|oracle)": -?(\d)', text)]
    positions, offset = [], 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            positions += [offset + i for i, c in enumerate(line) if c.isdigit()]
        offset += len(line)
    return positions


def test_checker_rejects_a_single_digit_corruption(responses):
    checker = Checker()
    for request, response in zip(SMALL, responses):
        text = response.out.decode()
        positions = _value_digit_positions(text)
        if request.kind == "refusal":
            assert not positions
            continue
        for at in positions[:: max(1, len(positions) // 25)] + positions[-1:]:
            digit = "7" if text[at] == "3" else "3"
            corrupt = text[:at] + digit + text[at + 1:]
            assert checker.check(request.kind, request.params, corrupt) is not None, (
                request.label(), at)


def test_judge_counts_a_traceback_as_a_crash():
    request = Request(("count", "20000"), 0, "count", ("all", 20000))
    response = run.spawn([sys.executable, "-m", "compcount", *request.argv], run.child_env())
    verdict = run.judge(request, response, Checker())
    assert verdict is not None and verdict.startswith("crash:")


def test_runner_records_spans_and_keeps_output(tmp_path):
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(run.HERE / "runner.py"), str(spans), "0", "count", "10"]
    done = subprocess.run(argv, env=run.child_env(), cwd=run.ROOT, capture_output=True, timeout=60)
    assert done.returncode == 0 and done.stdout == b"512\n"
    record = json.loads(spans.read_text())
    by_name = {name: layer for name, layer, *_ in record["spans"]}
    assert by_name["cli.main"] == "cli"
    assert by_name["cli.parse_alphabet"] == "alphabet"
    assert by_name["recurrence.count_compositions"] == "recurrence"
    assert record["calls"]["hessenberg.det_hessenberg"] == 0
    assert record["counters"]["cli.stdout_bytes"] == 4


def test_runner_survives_a_missing_public_name(tmp_path):
    spans = tmp_path / "spans.json"
    code = (
        "import sys; import compcount.hessenberg as h; del h.parse_matrix; "
        f"sys.path.insert(0, {str(run.HERE)!r}); import runner; "
        f"sys.exit(runner.main([{str(spans)!r}, '0', 'count', '5']))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=run.child_env(), cwd=run.ROOT,
                          capture_output=True, timeout=60)
    assert done.returncode == 0 and done.stdout == b"16\n"
    assert "hessenberg.parse_matrix" not in json.loads(spans.read_text())["calls"]


def test_tail_leaves_ten_values_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_metric_names_match_benchmark_json():
    bench = run.Run("verify-grid", 0, 1, traced=True)
    bench.walls, bench.traced_walls, bench.rss = [1.0] * 12, [1.2] * 12, [1024] * 12
    bench.attempted = bench.good = 12
    bench.startups = bench.setups = [0.1]
    assert list(bench.end_to_end()) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(bench.per_layer()) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(CYCLE_SECONDS)
