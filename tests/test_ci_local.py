"""The parsing half of scripts/ci_local.py. Running the steps is left out:
one of them is the tier-1 suite itself."""

import importlib.util
import os

import pytest

pytest.importorskip("yaml")

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "ci_local.py")
spec = importlib.util.spec_from_file_location("ci_local", SCRIPT)
ci_local = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci_local)

WORKFLOW = """\
name: demo
on: [push]
jobs:
  first:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: Before install
        run: echo before
      - name: Install
        run: pip install -e .
      - uses: actions/cache@v4
      - name: Unit tests
        run: python -m pytest -q
      - run: |
          echo unnamed
          echo second line
  second:
    runs-on: ubuntu-latest
    steps:
      - name: Report
        run: metasrl report --in "$RUNNER_TEMP/out"
"""


class TestLocalSteps:
    def test_run_steps_after_install_in_order(self, tmp_path):
        path = tmp_path / "workflow.yml"
        path.write_text(WORKFLOW)
        steps = ci_local.local_steps(str(path))
        assert [name for name, _ in steps] == ["Unit tests", "echo unnamed", "Report"]
        assert steps[1][1] == "echo unnamed\necho second line\n"
        assert steps[2][1] == 'metasrl report --in "$RUNNER_TEMP/out"'

    def test_workflow_without_install_refused(self, tmp_path):
        path = tmp_path / "workflow.yml"
        path.write_text(WORKFLOW.replace("name: Install", "name: Setup"))
        with pytest.raises(ValueError, match="Install"):
            ci_local.local_steps(str(path))

    def test_repository_workflow(self):
        steps = ci_local.local_steps()
        names = [name for name, _ in steps]
        assert names[0] == "Tier-1 tests" and ci_local.INSTALL not in names
        assert all(script.strip() for _, script in steps)

    def test_kernel_guard_compares_test09_under_two_kernels(self):
        """The BLAS-kernel guard runs test_09 under the default kernel and
        under Prescott, and bounds the export drift between them."""
        script = dict(ci_local.local_steps())["test_09 across BLAS kernels"]
        assert script.count("metasrl run --config examples/test09.json --seed 0") == 2
        assert "OPENBLAS_CORETYPE=Prescott metasrl run" in script
        assert "export_digest.py" in script and "1e-12" in script
