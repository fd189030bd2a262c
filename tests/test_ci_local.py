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

    def test_tdsampled_digest_compares_two_hash_seeds(self):
        """The TdSampled test_09 sweep runs under two hash seeds, and the
        step requires the two export digests to be equal."""
        script = dict(ci_local.local_steps())["TdSampled test_09 export digest"]
        for seed in (1, 12345):
            assert (f"PYTHONHASHSEED={seed} metasrl run --config "
                    "examples/test09_tdsampled.json --seed 0") in script
        assert script.count("export_digest.py") == 2
        assert 'test "$first" = "$second"' in script

    def test_kernel_guard_compares_test09_under_two_kernels(self):
        """The BLAS-kernel guard runs test_09 under Prescott only, and bounds
        its export drift from the default-kernel export that the digest
        step, which comes first, wrote with the same config and seed."""
        steps = ci_local.local_steps()
        names = [name for name, _ in steps]
        script, digest = (dict(steps)[name] for name in
                          ("test_09 across BLAS kernels", "test_09 export digest"))
        assert names.index("test_09 export digest") < names.index("test_09 across BLAS kernels")
        run = "metasrl run --config examples/test09.json --seed 0"
        assert script.count(run) == 1
        assert f"OPENBLAS_CORETYPE=Prescott {run}" in script
        assert f'PYTHONHASHSEED=1 {run} --out "$RUNNER_TEMP/test09"' in digest
        assert ('export_digest.py "$RUNNER_TEMP/test09" "$RUNNER_TEMP/kernel_prescott"'
                in script)
        assert "1e-12" in script
