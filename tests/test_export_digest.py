import importlib.util
import os

from metasrl.cli import main

from test_cli import RUN_DOC, write_json

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "export_digest.py")
spec = importlib.util.spec_from_file_location("export_digest", SCRIPT)
export_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(export_digest)


def tiny_export(tmp_path, name):
    cfg = write_json(tmp_path / "run.json", RUN_DOC)
    out = str(tmp_path / name)
    assert main(["run", "--config", cfg, "--out", out]) == 0
    return out


class TestExportDigest:
    def test_same_config_same_digest_no_drift(self, tmp_path, capsys):
        a, b = tiny_export(tmp_path, "a"), tiny_export(tmp_path, "b")
        capsys.readouterr()
        assert export_digest.digest(a) == export_digest.digest(b)
        report = export_digest.drift_report(a, b)
        assert set(report) == set(os.listdir(a))
        assert all(drift == 0.0 for drift in report.values())
        assert export_digest.main([a, b]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[1] == lines[1].split()[1]
        assert lines[-1].split() == ["max", "0"]

    def test_number_drift_and_text_change(self, tmp_path):
        a = tiny_export(tmp_path, "a")
        curves = os.path.join(a, "curves_Random.csv")
        before = export_digest.digest(a)
        with open(curves) as fh:
            header, first, *rest = fh.read().split("\n")
        fields = first.split(",")
        fields[3] = repr(float(fields[3]) + 1e-3)
        assert export_digest.number_drift(
            "\n".join([header, first, *rest]),
            "\n".join([header, ",".join(fields), *rest])) > 0.9e-3
        assert export_digest.number_drift("a,1.5", "b,1.5") is None
        with open(curves, "a") as fh:
            fh.write("\n")
        assert export_digest.digest(a) != before

    def test_each_digest_line_ends_with_the_blas_core(self, tmp_path, capsys):
        a = tiny_export(tmp_path, "a")
        capsys.readouterr()
        core = export_digest.blas_core()
        assert core and " " not in core
        assert export_digest.main([a, a]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines[:2]] == \
            [["sha256", export_digest.digest(a), a, core]] * 2

    def test_blas_core_is_unknown_without_the_library_or_function(self, monkeypatch):
        monkeypatch.setattr(export_digest.glob, "glob", lambda pattern: [])
        assert export_digest.blas_core() == "unknown"
        # a library that lacks the function
        monkeypatch.setattr(export_digest.glob, "glob", lambda pattern: ["libother.so"])
        monkeypatch.setattr(export_digest.ctypes, "CDLL", lambda path: object())
        assert export_digest.blas_core() == "unknown"
