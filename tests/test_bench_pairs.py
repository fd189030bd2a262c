import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
                       {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}


def runs(run_s, rate):
    return [{"metrics": {"run_s": {"value": a}, "rate": {"value": b}}}
            for a, b in zip(run_s, rate)]


def test_one_pair_on_the_same_checkout():
    proc = subprocess.run(
        [sys.executable, SCRIPT, ROOT, ROOT, "--workload", "sampled_grid4",
         "--pairs", "1", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "pair 1/1 (parent first): run_s " in out
    for name in ("run_s", "setup_s", "peak_rss_mb"):
        assert f"  {name} " in out and "wins " in out
    assert "parent: failed 0/" in out and "change: failed 0/" in out


def test_verdicts_follow_wins_spread_and_bound():
    parent = runs([1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98], [1.0] * 10)
    faster = runs([0.7] * 9 + [1.2], [1.5] * 10)
    rows = {r[0]: r for r in bench_pairs.summarize(SPEC, parent, faster)}
    assert rows["run_s"][5] == 9 and rows["run_s"][6] == "gain"
    assert rows["rate"][5] == 10 and rows["rate"][6] == "gain"
    slower = runs([1.2] * 10, [0.95] * 10)
    rows = {r[0]: r for r in bench_pairs.summarize(SPEC, parent, slower)}
    assert rows["run_s"][5] == 0 and rows["run_s"][6] == "worse beyond bound"
    assert rows["rate"][6] == "within bound"
    eight_wins = runs([0.7] * 8 + [1.2] * 2, [1.0] * 10)
    rows = {r[0]: r for r in bench_pairs.summarize(SPEC, parent, eight_wins)}
    assert rows["run_s"][6] == "within bound" and rows["rate"][5] == 0


def test_a_steady_shift_far_inside_the_bound_is_not_a_gain():
    # a memory metric moved 0.6 % by code layout alone, with no spread
    spec = {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower",
                            "bound": 0.1}]}

    def rss(values):
        return [{"metrics": {"peak_rss_mb": {"value": v}}} for v in values]

    parent = rss([47.3] * 10)
    (row,) = bench_pairs.summarize(spec, parent, rss([47.3 * 0.994] * 10))
    assert row[5] == 10 and row[6] == "within bound"
    (row,) = bench_pairs.summarize(spec, parent, rss([47.3 * 1.006] * 10))
    assert row[5] == 0 and row[6] == "within bound"
    # a shift of more than a tenth of the bound still reads as a gain
    (row,) = bench_pairs.summarize(spec, parent, rss([47.3 * 0.98] * 10))
    assert row[6] == "gain"


def test_a_workload_list_runs_every_workload_in_every_pair(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, workload))
        value = 1.0 if checkout == "old" else 0.5
        return {"metrics": {n: {"value": value} for n in ("run_s", "setup_s",
                                                          "peak_rss_mb")},
                "failed": int(workload == "b"), "attempted": 3, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.chdir(ROOT)   # the change's BENCHMARK.json
    assert bench_pairs.main(["old", ".", "--workload", "a,b", "--pairs", "2",
                             "--seconds", "1"]) == 0
    assert calls == [("old", "a"), (".", "a"), ("old", "b"), (".", "b"),
                     (".", "a"), ("old", "a"), (".", "b"), ("old", "b")]
    out = capsys.readouterr().out
    assert "a seed 0 pair 1/2 (parent first): run_s 1 -> 0.5" in out
    assert "b seed 0 pair 2/2 (change first): run_s 1 -> 0.5" in out
    blocks = out.split("\n\n")[1:]
    assert [b.split()[0] for b in blocks] == ["a", "b"]
    for block, failed in zip(blocks, (0, 2)):
        assert block.count("wins 2/2  gain") == 3
        assert f"parent: failed {failed}/6" in block
        assert f"change: failed {failed}/6" in block


def test_a_gain_must_hold_at_every_seed(monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        # the change halves every metric at seed 1 and leaves seed 2 alone
        value = 0.5 if (checkout == "." and seed == 1) else 1.0
        return {"metrics": {n: {"value": value} for n in ("run_s", "setup_s",
                                                          "peak_rss_mb")},
                "failed": 0, "attempted": 3, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.chdir(ROOT)   # the change's BENCHMARK.json
    assert bench_pairs.main(["old", ".", "--workload", "a", "--seed", "1,2",
                             "--pairs", "2", "--seconds", "1"]) == 0
    assert calls == [("old", 1), (".", 1), ("old", 2), (".", 2),
                     (".", 1), ("old", 1), (".", 2), ("old", 2)]
    out = capsys.readouterr().out
    assert "a seed 2 pair 2/2 (change first): run_s 1 -> 1" in out
    seed_1, seed_2, overall = out.split("\n\n")[1:]
    assert seed_1.startswith("a seed 1,") and seed_1.count("wins 2/2  gain") == 3
    assert seed_2.startswith("a seed 2,") and seed_2.count("wins 0/2  within bound") == 3
    assert overall.strip() == ("a over seeds 1,2: run_s within bound, "
                               "setup_s within bound, peak_rss_mb within bound")
    assert bench_pairs.over_seeds(["gain", "gain"]) == "gain"
    assert bench_pairs.over_seeds(["gain", "worse beyond bound"]) == "worse beyond bound"
