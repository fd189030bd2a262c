import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_layers.py")
spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
bench_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_layers)


ROOT = os.path.dirname(os.path.dirname(SCRIPT))
LAYERS = ["build", "evaluate", "visitation", "td", "lanes_1", "lanes_5", "lanes_50",
          "sample", "dice"]


def run_4x4(capsys):
    """The timing table's header and row, and the work table's rows, each
    split into fields."""
    assert bench_layers.main(["--sizes", "4", "--repeats", "1", "--number", "1"]) == 0
    header, row, blank, work_header, *work = capsys.readouterr().out.splitlines()
    assert blank == "" and work_header.split() == [
        "grid", "layer", "metasrl_calls", "other_calls", "solves", "solve_shapes"]
    return header.split(), row.split(), [line.split() for line in work]


def test_times_the_4x4_layer_once(capsys):
    header, row, _ = run_4x4(capsys)
    assert header == ["grid", "states", "|I|"] + [f"{name}_us" for name in LAYERS] \
        + ["dice_peak_kb"] + [f"{name}_calls" for name in LAYERS]
    grid, states, indep, *times = row[:-len(LAYERS)]
    assert (grid, states) == ("4x4", "17") and 0 < int(indep) < 17
    assert all(float(t) > 0 for t in times)


def test_call_counts_are_positive_and_repeat(capsys):
    counts = [run_4x4(capsys)[1][-len(LAYERS):] for _ in range(2)]
    assert all(c.isdigit() and int(c) > 0 for c in counts[0])
    assert counts[0] == counts[1]
    # a lockstep makes its per-step calls once for all its lanes: fifty
    # lanes cost a few calls a lane more than one lane, not fifty times as many
    lanes = {name: int(c) for name, c in zip(LAYERS, counts[0])}
    assert lanes["lanes_1"] < lanes["lanes_5"] < lanes["lanes_50"] < 5 * lanes["lanes_1"]


def test_call_counts_rise_by_the_calls_added_a_crpo_step(capsys, monkeypatch):
    """A wrapper around the NPG step adds k = 3 calls a CRPO step: its own
    and two no-ops. A lockstep takes the config's 8 steps at any lane count,
    so each lanes layer's count rises by 8 k, and the td layer, one step,
    by k; no other layer takes a step."""
    counts = lambda: [int(c) for c in run_4x4(capsys)[1][-len(LAYERS):]]
    before, step = counts(), bench_layers.crpo.npg_softmax_step

    def noop():
        pass

    def padded(logits, q, step_size):
        noop()
        noop()
        return step(logits, q, step_size)

    monkeypatch.setattr(bench_layers.crpo, "npg_softmax_step", padded)
    rise = {name: after - count for name, count, after in zip(LAYERS, before, counts())}
    assert bench_layers.CRPO.steps == 8
    assert rise == {name: 8 * 3 if name.startswith("lanes_") else 3 if name == "td" else 0
                    for name in LAYERS}


def test_call_split_sums_to_the_total_and_repeats(capsys):
    runs = [run_4x4(capsys) for _ in range(2)]
    assert runs[0][1][-len(LAYERS):] == runs[1][1][-len(LAYERS):]
    assert runs[0][2] == runs[1][2]
    totals, work = runs[0][1][-len(LAYERS):], runs[0][2]
    assert [row[:2] for row in work] == [["4x4", name] for name in LAYERS]
    for total, (_, name, metasrl_calls, other, solves, shapes) in zip(totals, work):
        assert int(metasrl_calls) > 0 and int(other) > 0
        assert int(metasrl_calls) + int(other) == int(total), name
        # the shapes account for every solve
        per_shape = [int(s.rpartition("*")[2]) for s in shapes.split(",")] \
            if shapes != "-" else []
        assert sum(per_shape) == int(solves), name
    shapes = {row[1]: row[5] for row in work}
    # the 4x4 grid keeps 17 - 8 states after elimination: one 9x9 system an
    # exact evaluation, stacked one a lane, one a CRPO step; a TdSampled
    # step stacks the iterate's system on the task and on its counted model
    assert shapes["build"] == shapes["sample"] == "-"
    assert shapes["evaluate"] == "1x9x9*1" and shapes["visitation"] == "9x9*1"
    assert shapes["td"] == "2x9x9*1"
    assert [shapes[f"lanes_{n}"] for n in (1, 5, 50)] == \
        ["1x9x9*8", "5x9x9*8", "50x9x9*8"]


def test_pairs_against_the_repository_itself(capsys):
    """--against the repository's own root times every layer of two copies
    of one package: a ratio and a share of won rounds for each."""
    assert bench_layers.main(["--sizes", "4", "--repeats", "3", "--number", "1",
                              "--against", ROOT]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["grid", "layer", "change_us", "parent_us", "ratio", "won"]
    assert [row[:2] for row in rows] == [["4x4", name] for name in LAYERS]
    for _, _, change_us, parent_us, ratio, won in rows:
        assert float(change_us) > 0 and float(parent_us) > 0 and float(ratio) > 0
        assert 0.0 <= float(won) <= 1.0


def test_against_a_directory_without_the_package_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench_layers.main(["--sizes", "4", "--against", str(tmp_path)])
    assert exc.value.code == 2
