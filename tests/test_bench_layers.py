import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_layers.py")
spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
bench_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_layers)


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
    # exact evaluation, stacked one a lane, one a CRPO step
    assert shapes["build"] == shapes["sample"] == "-"
    assert shapes["evaluate"] == "1x9x9*1" and shapes["visitation"] == "9x9*1"
    assert [shapes[f"lanes_{n}"] for n in (1, 5, 50)] == \
        ["1x9x9*8", "5x9x9*8", "50x9x9*8"]
