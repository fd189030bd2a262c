import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench_layers.py")
spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
bench_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_layers)


def test_times_the_4x4_layer_once(capsys):
    assert bench_layers.main(["--sizes", "4", "--repeats", "1", "--number", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["grid", "states", "|I|", "build_us", "evaluate_us",
                              "visitation_us", "td_us", "sample_us", "dice_us",
                              "dice_peak_kb"]
    grid, states, indep, *times = row.split()
    assert (grid, states) == ("4x4", "17") and 0 < int(indep) < 17
    assert all(float(t) > 0 for t in times)
