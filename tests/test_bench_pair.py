import importlib.util
import json
import pathlib
import statistics
import subprocess
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


tool = _tool()

METRICS = ("batch_s", "setup_s", "pass_frac", "digits", "peak_rss_mb")


def _run(batch_s, digits=10.0, seed=0, pair=0):
    values = {"batch_s": batch_s, "setup_s": 0.4, "pass_frac": 1.0, "digits": digits, "peak_rss_mb": 100.0}
    return {
        "pair": pair,
        "seed": seed,
        "correct": True,
        "metrics": {name: {"value": values[name], "unit": "-"} for name in METRICS},
    }


def test_summarize_takes_median_and_exclusive_quartiles():
    runs = [_run(float(v)) for v in (7, 1, 10, 4, 2, 9, 3, 8, 6, 5)]
    median, quartiles = tool.summarize(runs)
    assert median["batch_s"] == 5.5
    assert quartiles["batch_s"] == [2.75, 8.25]
    assert quartiles["batch_s"] == [statistics.quantiles(range(1, 11), n=4)[i] for i in (0, 2)]
    assert median["pass_frac"] == 1.0 and quartiles["pass_frac"] == [1.0, 1.0]


def test_summarize_one_run():
    median, quartiles = tool.summarize([_run(0.3)])
    assert median["batch_s"] == 0.3 and quartiles["batch_s"] == [0.3, 0.3]


PARENT = [0.136, 0.131, 0.140, 0.133, 0.138, 0.135, 0.129, 0.142, 0.137, 0.134]


def test_verdict_met_when_the_gain_exceeds_the_parent_iqr():
    parent = [_run(v) for v in PARENT]
    change = [_run(0.8 * v) for v in PARENT]
    v = tool.verdict(parent, change, "batch_s", lower=True)
    assert v["wins"] == [True] * 10
    assert v["parent_median"] == statistics.median(PARENT)
    assert v["met"]


def test_verdict_not_met_within_the_parent_iqr():
    # faster in every pair, but by less than the parent's quartile distance
    parent = [_run(v) for v in PARENT]
    change = [_run(v - 0.002) for v in PARENT]
    v = tool.verdict(parent, change, "batch_s", lower=True)
    assert all(v["wins"])
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    assert v["parent_iqr"] == pytest.approx(q3 - q1)
    assert not v["met"]


def test_verdict_counts_wins_per_pair_and_reads_direction():
    parent = [_run(0.1, digits=d) for d in (10.0, 10.0, 10.0, 10.0)]
    change = [_run(0.1, digits=d) for d in (12.0, 9.0, 12.0, 12.0)]
    higher = tool.verdict(parent, change, "digits", lower=False)
    assert higher["wins"] == [True, False, True, True] and higher["met"]
    lower = tool.verdict(parent, change, "digits", lower=True)
    assert lower["wins"] == [False, True, False, False] and not lower["met"]


STDOUT = """\
env {"cpu": "x", "nproc": 2}
workload compress-io  seed 0  trace 0
job                               median_s digits target sweeps  result
quantize-sine                       0.0074  14.61   10.0      -  pass
cli-eig-d10                         0.0344  16.00   10.0      3  pass
batch_s             0.159108 s       sum of 2 per-job medians over 3 passes
digits               14.61   digits  fewest over 2 passed jobs
{"correct": true, "attempted": 6, "failed": 0, "metrics": {"batch_s": {"value": 0.159, "unit": "s"}}}
"""


def test_parse_run_reads_env_jobs_and_result():
    env, jobs, result = tool.parse_run(STDOUT)
    assert env == {"cpu": "x", "nproc": 2}
    assert jobs == {
        "quantize-sine": {"median_s": 0.0074, "digits": 14.61},
        "cli-eig-d10": {"median_s": 0.0344, "digits": 16.0},
    }
    assert result["correct"] and result["metrics"]["batch_s"]["value"] == 0.159


def test_parse_run_without_a_result_line():
    with pytest.raises(tool.PairError):
        tool.parse_run("workload compress-io\nTraceback\n")


def _checkout(path, batch_s, correct=True):
    """A checkout whose bench prints a canned run: ``batch_s`` plus the seed
    as its time, and ``correct`` as given."""
    (path / "bench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": name, "better": "higher" if name in ("pass_frac", "digits") else "lower"} for name in METRICS
    ]}))
    metrics = {name: {"value": 1.0, "unit": "-"} for name in METRICS}
    (path / "bench" / "run.py").write_text(textwrap.dedent(f"""\
        import json, sys
        seed = int(sys.argv[sys.argv.index("--seed") + 1])
        metrics = {metrics!r}
        metrics["batch_s"]["value"] = {batch_s} + seed
        print('env {{"nproc": 2}}')
        print("quantize-sine                       0.0074  14.61   10.0      -  pass")
        if not {correct}:
            print("error: quantize-sine: outputs differ between processes")
        print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": 0, "metrics": metrics}}))
        """))
    return path


def test_main_alternates_and_writes_the_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tool, "kernel_seconds", lambda: 0.5)  # the kernel patched to be instant
    parent = _checkout(tmp_path / "parent", 0.2)
    change = _checkout(tmp_path / "change", 0.1)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "compress-io",
            "--seeds", "0,1", "--pairs", "2", "--seconds", "1", "--pr", "7", "--out", str(tmp_path)]
    assert tool.main(argv) == 0
    out = capsys.readouterr().out
    assert "seed 0: change better in 2 of 2 pairs (++)" in out and "claim met" in out
    for side in ("parent", "change"):
        doc = json.loads((tmp_path / f"BENCH_pr7_compress-io_{side}.json").read_text())
        assert list(doc) == ["workload", "side", "command", "pairs", "env", "median", "quartiles", "runs"]
        assert doc["side"] == side and doc["env"] == {"nproc": 2}
        assert doc["command"] == "python3 bench/run.py --workload compress-io --seed 0 --seconds 1"
        assert [(r["seed"], r["pair"]) for r in doc["runs"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # the parent runs first in even-numbered pairs
        assert [r["first_in_pair"] for r in doc["runs"]] == [side == "parent", side == "change"] * 2
        assert doc["runs"][0]["jobs"] == {"quantize-sine": {"median_s": 0.0074, "digits": 14.61}}
        # median and quartiles over the first seed only
        assert doc["median"]["batch_s"] == pytest.approx(0.2 if side == "parent" else 0.1)


def test_main_stops_on_an_incorrect_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tool, "kernel_seconds", lambda: 0.5)  # the kernel patched to be instant
    parent = _checkout(tmp_path / "parent", 0.2)
    change = _checkout(tmp_path / "change", 0.1, correct=False)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "compress-io",
            "--pairs", "2", "--pr", "7", "--out", str(tmp_path)]
    assert tool.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["error: change run, seed 0, pair 0: correct=false "
                     "(quantize-sine: outputs differ between processes)"]
    assert not list(tmp_path.glob("BENCH_*"))


def test_verdict_per_kernel_divides_each_run_by_its_kernel_time():
    # the machine's speed moves by up to 40 % from run to run, on both sides
    # alike: the times' spread hides a 6 % gain that the ratios show
    speed = [1.0, 1.4, 1.1, 1.3, 1.0, 1.2, 1.35, 1.05, 1.25, 1.15]
    parent = [dict(_run(0.35 * s * (1 + 0.002 * i)), kernel_s=0.05 * s) for i, s in enumerate(speed)]
    change = [dict(_run(0.33 * s), kernel_s=0.05 * s) for s in speed[::-1]]
    plain = tool.verdict(parent, change, "batch_s", lower=True)
    assert not all(plain["wins"]) and not plain["met"]
    ratio = tool.verdict(parent, change, "batch_s", lower=True, per_kernel=True)
    assert ratio["wins"] == [True] * 10 and ratio["met"]
    assert ratio["parent_median"] == pytest.approx(7.0 * (1 + 0.002 * 4.5))
    assert ratio["change_median"] == pytest.approx(6.6)
    # exclusive quartiles of i = 0..9 lie at 1.75 and 7.25
    assert ratio["parent_iqr"] == pytest.approx(7.0 * 0.002 * (7.25 - 1.75))


def test_main_records_the_kernel_time_and_prints_the_ratio_verdict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tool, "kernel_seconds", lambda: 0.5)  # the kernel patched to be instant
    parent = _checkout(tmp_path / "parent", 0.2)
    change = _checkout(tmp_path / "change", 0.1)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "compress-io",
            "--seeds", "0,1", "--pairs", "2", "--seconds", "1", "--pr", "7", "--out", str(tmp_path)]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:] == [
        "seed 0: change better in 2 of 2 pairs (++); batch_s median 0.2 -> 0.1, parent IQR 0: claim met",
        "seed 0: change better in 2 of 2 pairs (++); batch_s / kernel_s median 0.4 -> 0.2, parent IQR 0: claim met",
        "seed 1: change better in 2 of 2 pairs (++); batch_s median 1.2 -> 1.1, parent IQR 0: claim met",
        "seed 1: change better in 2 of 2 pairs (++); batch_s / kernel_s median 2.4 -> 2.2, parent IQR 0: claim met",
    ]
    for side in ("parent", "change"):
        doc = json.loads((tmp_path / f"BENCH_pr7_compress-io_{side}.json").read_text())
        assert [run["kernel_s"] for run in doc["runs"]] == [0.5] * 4


def test_kernel_seconds_runs_the_real_kernel():
    # one real run (about 0.6 s), so that a broken kernel script fails here
    seconds = tool.kernel_seconds()
    assert isinstance(seconds, float) and 0 < seconds < 60


def test_kernel_seconds_reads_a_pinned_process(monkeypatch):
    calls = []

    def run(command, env, **kwargs):
        calls.append(env)
        return subprocess.CompletedProcess(command, 0, stdout="0.0625\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.kernel_seconds() == 0.0625
    assert all(calls[0][var] == "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))


def test_kernel_seconds_stops_on_a_failed_kernel(monkeypatch):
    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, stdout="", stderr="Traceback\nMemoryError: no room\n")

    monkeypatch.setattr(tool.subprocess, "run", run)
    with pytest.raises(tool.PairError, match=r"^reference kernel: exit 1: MemoryError: no room$"):
        tool.kernel_seconds()
