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
    assert bench_layers.main(["--sizes", "4", "--repeats", "1", "--number", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    return header.split(), row.split()


def test_times_the_4x4_layer_once(capsys):
    header, row = run_4x4(capsys)
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
